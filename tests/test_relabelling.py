"""Convergence up to identifier relabelling (``differential.converged``).

The one convergence predicate ends a run at a snapshot cycle when the
variant is the golden state under a renaming of identifiers, ``k`` of them
short in its free list (``k = 0`` for exact convergence). Each refusal
test below starts from a state the check accepts, breaks one of its
conditions, asserts the check refuses, and then simulates the broken state
to the end: the result differs from what acceptance would have reported,
so the condition is load-bearing.
"""

import pytest

import repro.bugs.campaign as campaign
from repro.bugs.campaign import run_injection
from repro.bugs.classify import classify_run, timeout_budget
from repro.bugs.differential import Reconvergence, converged
from repro.bugs.injector import arm
from repro.bugs.models import BugModel, BugSpec, PRIMARY_MODELS
from repro.bugs.snapshot import SnapshotProvider, make_detectors
from repro.core.config import CoreConfig
from repro.core.cpu import OoOCore
from repro.core.errors import SimulationError
from repro.core.rrs.signals import ArrayName, SignalFabric, SignalKind
from repro.core.uop import Uop
from repro.exec.tasks import execute_task, generate_tasks
from repro.idld.checker import Violation
from repro.workloads import WORKLOADS

INTERVAL = 250
#: ``basicmath/Leakage/1`` of ``--seed 1000``: a dropped FL reclaim that
#: the check accepts at cycle 500 with one identifier missing.
LEAK = BugSpec(
    model=BugModel.LEAKAGE,
    inject_cycle=293,
    array=ArrayName.FL,
    kind=SignalKind.WRITE_ENABLE,
)
HIT = 500


@pytest.fixture(scope="module")
def basicmath():
    program = WORKLOADS["basicmath"](scale=1)
    return program, SnapshotProvider(program, INTERVAL)


def _variant_at(program, provider, spec, cycle, config=None):
    """The snapshot-driven variant of ``spec``, stepped to ``cycle``."""
    fabric = SignalFabric()
    arm(spec, fabric)
    detectors = make_detectors()
    core = OoOCore(
        program, config=config, observers=list(detectors), fabric=fabric
    )
    provider.restore_into(
        provider.nearest(spec.inject_cycle - 1), core, detectors
    )
    core.run_cycles(cycle)
    return core, detectors, fabric


def _finish(program, golden, core, detectors):
    """Simulate to the end and report what a result would record."""
    error = None
    try:
        core.run_cycles(timeout_budget(golden))
    except SimulationError as exc:
        error = exc
    result = core.result()
    persists = None
    if error is None and result.halted:
        persists = not core.census_is_clean()
    return (
        classify_run(program, golden, result, error).outcome.value,
        result.cycles,
        persists,
        *(d.first_detection_cycle for d in detectors),
    )


def _reported(golden, hit, detectors):
    """What a run that ends at ``hit`` reports, in :func:`_finish` form."""
    return (
        "Benign",
        golden.cycles,
        hit.missing > 0,
        detectors[0].first_detection_cycle,
        hit.bv_cycle,
        hit.counter_cycle,
    )


@pytest.fixture(scope="module")
def accepted(basicmath):
    program, provider = basicmath
    core, detectors, fabric = _variant_at(program, provider, LEAK, HIT)
    hit = converged(provider, core, detectors, fabric, HIT)
    assert hit is not None and hit.missing == 1
    return _reported(provider.golden, hit, detectors)


def test_accepted_leak_reports_the_cold_result(basicmath, accepted):
    program, provider = basicmath
    golden = provider.golden
    cold = run_injection(program, golden, LEAK)
    core, detectors, _ = _variant_at(program, provider, LEAK, HIT)
    assert _finish(program, golden, core, detectors) == accepted
    assert (
        cold.outcome.value, cold.final_cycle, cold.persists,
        cold.idld_cycle, cold.bv_cycle, cold.counter_cycle,
    ) == accepted
    diff = run_injection(program, golden, LEAK, snapshots=provider)
    assert diff == cold
    assert diff.early_terminated_cycle == HIT


def _lag_reclaim_pointer(core, detectors):
    core.rob._read_ptr -= 1


def _free_twice(core, detectors):
    free_list = core.free_list
    head = free_list._head
    free_list._array[(head + 1) % free_list.capacity] = free_list._array[
        head % free_list.capacity
    ]


def _free_and_live(core, detectors):
    free_list = core.free_list
    free_list._array[(free_list._head + 1) % free_list.capacity] = (
        core.rat.read(5)
    )


def _bv_marks_a_live_register_free(core, detectors):
    bv = detectors[1]
    free = set(core.free_list.contents())
    bv._bits[next(p for p in range(len(bv._bits)) if p not in free)] = True
    bv._free_count += 1


def _idld_not_latched(core, detectors):
    detectors[0].violations = []


def _live_register_value_differs(core, detectors):
    core.prf._values[core.rat.read(1)] ^= 1


def _commit_trace_differs(core, detectors):
    # Same trace lengths (the fingerprint), different contents.
    core.commit_cycles[0] -= 1


@pytest.mark.parametrize(
    "break_state",
    [
        _lag_reclaim_pointer,
        _free_twice,
        _free_and_live,
        _bv_marks_a_live_register_free,
        _idld_not_latched,
        _live_register_value_differs,
        _commit_trace_differs,
    ],
    ids=lambda fn: fn.__name__.lstrip("_"),
)
def test_refuses_a_broken_condition(basicmath, accepted, break_state):
    program, provider = basicmath
    core, detectors, fabric = _variant_at(program, provider, LEAK, HIT)
    break_state(core, detectors)
    assert converged(provider, core, detectors, fabric, HIT) is None
    assert _finish(program, provider.golden, core, detectors) != accepted


def test_injection_detaches_each_detector_once_it_latches(
    basicmath, monkeypatch
):
    program, provider = basicmath
    detached = []
    detach = OoOCore.detach

    def recording(core, observer):
        assert observer.first_detection_cycle is not None
        detached.append(type(observer).__name__)
        detach(core, observer)

    monkeypatch.setattr(OoOCore, "detach", recording)
    result = run_injection(program, provider.golden, LEAK, snapshots=provider)
    assert result.early_terminated_cycle == HIT
    # IDLD fires at cycle 299 and is detached at the snapshot cycle 500;
    # BV and the counter are still pending there.
    assert detached == ["IDLDChecker"]


#: A 64-register core whose golden free lists empty: every snapshot of
#: ``susan`` has a free floor below ``width``.
SMALL = CoreConfig(
    num_physical_regs=64, rob_entries=40, checkpoint_interval=16
)


@pytest.fixture(scope="module")
def susan_small():
    program = WORKLOADS["susan"](scale=1)
    return program, SnapshotProvider(program, INTERVAL, config=SMALL)


def test_refuses_a_golden_free_list_that_falls_below_k_plus_width(
    susan_small,
):
    """``susan/Leakage/0`` of ``--seed 1000`` on a 64-register core: the
    leak's variant matches the golden at cycle 500 up to relabelling, but
    the golden free list later empties, where the variant, one register
    short, stalls rename first (a Performance outcome)."""
    config = SMALL
    program, provider = susan_small
    golden = provider.golden
    spec = BugSpec(
        model=BugModel.LEAKAGE,
        inject_cycle=482,
        array=ArrayName.FL,
        kind=SignalKind.WRITE_ENABLE,
    )
    cycle = 500
    core, detectors, fabric = _variant_at(
        program, provider, spec, cycle, config
    )
    assert provider.delta.free_floor[cycle] < 1 + config.width
    assert converged(provider, core, detectors, fabric, cycle) is None
    floor = provider.delta.free_floor
    provider.delta.free_floor = dict.fromkeys(floor, config.num_physical_regs)
    try:
        hit = converged(provider, core, detectors, fabric, cycle)
    finally:
        provider.delta.free_floor = floor
    assert hit is not None and hit.missing == 1
    would_report = _reported(golden, hit, detectors)
    cold = run_injection(program, golden, spec, config=config)
    assert cold.outcome.value == "Performance"
    assert _finish(program, golden, core, detectors) != would_report
    assert run_injection(
        program, golden, spec, config=config, snapshots=provider
    ) == cold


def test_accepts_k_zero_where_the_golden_free_list_falls_below_width(
    susan_small,
):
    """With no identifier missing, both free lists hold equally many, so
    no rename gate can tell them apart however low the golden's falls: the
    golden state itself converges, IDLD latched, at a snapshot cycle whose
    free floor is below ``width``."""
    program, provider = susan_small
    cycle = 500
    assert provider.delta.free_floor[cycle] < SMALL.width
    fabric = SignalFabric()
    detectors = make_detectors()
    core = OoOCore(
        program, config=SMALL, observers=list(detectors), fabric=fabric
    )
    provider.restore_into(provider.at(cycle), core, detectors)
    detectors[0].violations.append(Violation(cycle, 0, 0, 0, 1))
    assert converged(provider, core, detectors, fabric, cycle) == (
        Reconvergence(cycle, 0, None, None)
    )


def test_predicted_bv_and_counter_cycles_equal_the_cold_runs(monkeypatch):
    """Every convergence hit of a small campaign slice predicts the cold
    run's BV and counter cycles, including detections still pending at the
    hit."""
    hits = []

    def recording(*args):
        hit = converged(*args)
        if hit is not None:
            hits.append(hit)
        return hit

    monkeypatch.setattr(campaign, "converged", recording)
    names = ["basicmath", "sha", "stringsearch"]
    programs = {name: WORKLOADS[name](scale=1) for name in names}
    providers = {
        name: SnapshotProvider(programs[name], INTERVAL) for name in names
    }
    leaks = 0
    for task in generate_tasks(names, 4, PRIMARY_MODELS, seed=1000):
        program, provider = programs[task.benchmark], providers[task.benchmark]
        before = len(hits)
        diff = execute_task(task, program, provider.golden, snapshots=provider)
        cold = execute_task(task, program, provider.golden)
        assert diff == cold, task.key
        for hit in hits[before:]:
            assert (hit.bv_cycle, hit.counter_cycle) == (
                cold.bv_cycle, cold.counter_cycle
            ), task.key
            assert cold.persists == (hit.missing > 0), task.key
            leaks += hit.missing > 0
    assert leaks >= 3


def test_uop_split_names_every_identifier_field():
    uop = Uop(seq=1, pc=2, inst=None, src_pdsts=[11, 12], pdst=13,
              evicted_pdst=14)
    plain, ids = Uop.split_identifiers(uop.save_state())
    assert ids == [11, 12, 13, 14]
    uop.pdst = None
    other_plain, other_ids = Uop.split_identifiers(uop.save_state())
    assert other_ids == [11, 12, 14] and other_plain != plain
