"""Differential tests for snapshot-driven injection (repro.bugs.snapshot).

The whole optimization rests on one property: a snapshot-driven injection
run is *bit-identical* to the cold run of the same spec. These tests assert it
at three levels — raw core save/restore, single injections across every
suite benchmark and primary bug model, and whole engine campaigns, serial
and pooled, against the cold oracle (``tests.support.cold_campaign``).
"""

import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis.export import to_csv, to_json
from repro.bugs.campaign import run_golden, run_injection
from repro.bugs.injector import draw_spec
from repro.bugs.models import PRIMARY_MODELS, BugModel
from repro.bugs.snapshot import (
    SNAPSHOT_INTERVAL,
    SnapshotProvider,
    make_detectors,
)
from repro.core.config import (
    FREE_LIST_DISCIPLINES,
    RECOVERY_STRATEGIES,
    CoreConfig,
)
from repro.core.cpu import OoOCore
from repro.core.lsq import PAGE_BITS
from repro.exec.backends import ExecutionContext, ProcessPoolBackend
from repro.exec.engine import run_engine
from repro.exec.tasks import execute_task, generate_tasks
from repro.isa.instructions import WORD_MASK
from repro.workloads import WORKLOADS

from tests.support import cold_campaign
from tests.test_config_extremes import EXTREMES

SUITE = sorted(WORKLOADS)
SCALE = 0.4

_TIMING_KEYS = ("sim_wall_ns", "warm_start_cycles_skipped")


def _canon(result):
    """RunResult as a comparable tuple, measurement metadata stripped."""
    stats = {k: v for k, v in result.stats.items() if k not in _TIMING_KEYS}
    return (
        result.program_name,
        result.cycles,
        result.halted,
        list(result.output),
        list(result.commit_pcs),
        list(result.commit_cycles),
        stats,
    )


@pytest.fixture(scope="module")
def programs():
    return {name: WORKLOADS[name](scale=SCALE) for name in SUITE}


# -- core-level round trip -----------------------------------------------------


def test_save_restore_mid_run_is_field_identical(programs):
    """Continue-from-snapshot reproduces the original run exactly."""
    prog = programs["qsort"]
    detectors = make_detectors()
    core = OoOCore(prog, observers=list(detectors))
    for _ in range(150):
        core.step()
    assert not core.halted
    state = core.save_state()
    det_states = [d.save_state() for d in detectors]
    reference = core.run()

    restored = make_detectors()
    core2 = OoOCore(prog, observers=list(restored))
    core2.load_state(state)
    for det, det_state in zip(restored, det_states):
        det.load_state(det_state)
    resumed = core2.run()

    assert _canon(resumed) == _canon(reference)
    for a, b in zip(restored, detectors):
        assert a.save_state() == b.save_state()


def test_provider_golden_matches_plain_golden(programs):
    """The instrumented snapshot run is still a bona fide golden run."""
    prog = programs["sha"]
    provider = SnapshotProvider(prog, 20)
    assert _canon(provider.golden) == _canon(run_golden(prog))
    assert provider.count > 0


def test_every_campaign_snapshots_at_the_one_campaign_period(programs):
    """A campaign's provider is built once per benchmark, at
    SNAPSHOT_INTERVAL, and its golden is the plain golden run."""
    prog = programs["sha"]
    context = ExecutionContext({"sha": prog})
    provider = context.snapshots("sha")
    assert SNAPSHOT_INTERVAL == 250
    assert provider.interval == SNAPSHOT_INTERVAL
    assert context.snapshots("sha") is provider
    assert _canon(context.golden("sha")) == _canon(run_golden(prog))


def test_provider_matches_lockstep_golden(programs):
    """The provider drives its golden through run_cycles, fast-forward
    included; every snapshot, fingerprint and detector state must equal
    a plain one-step-at-a-time golden captured at the same cycles, and so
    must the free-list floor and next pipeline-empty cycle it records."""
    prog = programs["basicmath"]
    # Long-latency divides open quiescent spans the golden skips.
    skipping = OoOCore(prog, observers=list(make_detectors()))
    skipping.run()
    assert skipping.ff_cycles_skipped > 0
    interval = 20
    provider = SnapshotProvider(prog, interval)
    detectors = make_detectors()
    core = OoOCore(prog, observers=list(detectors))
    reference = {}
    # Per cycle: free-list count at its end (its minimum over the cycle:
    # commit pushes before rename pops) and whether the pipeline emptied.
    free_counts, empty = [], []
    while not core.halted:
        core.step()
        free_counts.append(core.free_list.count)
        empty.append(core.rob.empty and core.recovery is None)
        if core.cycle % interval == 0 and not core.halted:
            reference[core.cycle] = (
                core.save_state(light_trace=True),
                tuple(d.save_state() for d in detectors),
                core.fingerprint(),
            )
    assert _canon(provider.golden) == _canon(core.result())
    assert provider.candidate_cycles == sorted(reference)
    assert sorted(provider.delta.fingerprints) == provider.candidate_cycles
    for cycle, (core_state, detector_states, fingerprint) in reference.items():
        snapshot = provider.at(cycle)
        assert snapshot.core_state == core_state, cycle
        assert snapshot.detector_states == detector_states, cycle
        assert provider.delta.fingerprints[cycle] == fingerprint, cycle
        assert provider.delta.free_floor[cycle] == min(free_counts[cycle - 1:])
        assert provider.delta.next_empty[cycle] == next(
            (c for c in range(cycle + 1, core.cycle + 1) if empty[c - 1]), None
        )
    assert provider.delta.clean
    assert provider.delta.golden_persists == (not core.census_is_clean())


def test_consecutive_snapshots_share_unwritten_memory_pages(programs):
    """Golden snapshots are copy-on-write over data memory: every page no
    committed store touched between two consecutive snapshots is the
    earlier snapshot's own tuple, not a copy."""
    prog = programs["patricia"]
    provider = SnapshotProvider(prog, 20)
    # The golden's committed stores, as (cycle, page), from a plain run.
    core = OoOCore(prog)
    stores = []
    write = core.memory.committed_write

    def recording_write(cycle, address, value):
        stores.append((cycle, (address & WORD_MASK) >> PAGE_BITS))
        write(cycle, address, value)

    core.memory.committed_write = recording_write
    assert _canon(core.run()) == _canon(provider.golden)
    cycles = provider.candidate_cycles
    shared = written = 0
    for before, after in zip(cycles, cycles[1:]):
        old = provider.at(before).core_state["memory"]
        new = provider.at(after).core_state["memory"]
        touched = {page for cycle, page in stores if before < cycle <= after}
        for page, pairs in new.items():
            if page in touched:
                written += 1
            else:
                assert pairs is old[page], (after, page)
                shared += 1
    assert written > 0 and shared > 0


def test_save_load_save_round_trip_compares_equal(programs):
    """A restored core saves a state equal to the one it loaded, for every
    golden snapshot and for a full-trace mid-run state."""
    prog = programs["patricia"]
    provider = SnapshotProvider(prog, 200)
    for cycle in provider.candidate_cycles:
        snapshot = provider.at(cycle)
        detectors = make_detectors()
        core = OoOCore(prog, observers=list(detectors))
        provider.restore_into(snapshot, core, detectors)
        assert core.save_state(light_trace=True) == snapshot.core_state
        assert (
            tuple(d.save_state() for d in detectors)
            == snapshot.detector_states
        )
    core = OoOCore(prog)
    core.run_cycles(provider.golden.cycles // 2)
    state = core.save_state()
    restored = OoOCore(prog)
    restored.load_state(state)
    assert restored.save_state() == state


# -- injection-level: warm == cold over the whole suite x primary models ------


@pytest.mark.parametrize("name", SUITE)
def test_warm_injection_equals_cold(name, programs):
    prog = programs[name]
    provider = SnapshotProvider(prog, 20)
    golden = provider.golden
    rng = random.Random(0xC0FFEE)
    config = CoreConfig()
    skipped_any = False
    for model in PRIMARY_MODELS:
        spec = draw_spec(model, rng, golden.cycles, config)
        cold = run_injection(prog, golden, spec)
        warm = run_injection(prog, golden, spec, snapshots=provider)
        # InjectionResult equality covers every simulation outcome field;
        # the timing fields are compare=False by design.
        assert warm == cold, f"{name}/{model.value} diverged"
        skipped_any = skipped_any or warm.warm_start_cycles_skipped > 0
        assert cold.warm_start_cycles_skipped == 0
    assert skipped_any, f"no injection of {name} ever warm-started"


def test_snapshot_every_cycle_equals_off(programs):
    """interval=1 (nearest snapshot is always inject_cycle - 1) vs cold."""
    prog = programs["bitcount"]
    provider = SnapshotProvider(prog, 1)
    golden = provider.golden
    rng = random.Random(7)
    config = CoreConfig()
    for model in PRIMARY_MODELS:
        spec = draw_spec(model, rng, golden.cycles, config)
        cold = run_injection(prog, golden, spec)
        warm = run_injection(prog, golden, spec, snapshots=provider)
        assert warm == cold
        assert warm.warm_start_cycles_skipped == spec.inject_cycle - 1


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    benchmark=st.sampled_from(("sha", "crc32", "bitcount", "basicmath")),
    scale=st.integers(min_value=1, max_value=10).map(lambda n: n / 20),
    width=st.sampled_from((1, 2, 4, 8)),
    discipline=st.sampled_from(FREE_LIST_DISCIPLINES),
    recovery=st.sampled_from(RECOVERY_STRATEGIES),
    predictor=st.sampled_from(("gshare", "bimodal")),
    registers=st.sampled_from(({}, EXTREMES["48-registers"])),
    model=st.sampled_from(PRIMARY_MODELS),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# At 48 registers this corruption drives PdstID 48..63 after the first
# snapshot: the Assert path runs restored as well as cold.
@example(
    benchmark="sha", scale=0.25, width=4, discipline="fifo",
    recovery="checkpoint", predictor="gshare",
    registers=EXTREMES["48-registers"],
    model=BugModel.PDST_CORRUPTION, seed=4,
)
def test_snapshot_injection_equals_cold_across_scales_and_design_points(
    benchmark, scale, width, discipline, recovery, predictor, registers,
    model, seed,
):
    """Cold and snapshot-driven injections agree at random scales and
    CoreConfig points, including a register count that is not a power of
    two (so a corruption can name a register that does not exist)."""
    config = CoreConfig(
        width=width,
        free_list_discipline=discipline,
        recovery_strategy=recovery,
        predictor_kind=predictor,
        **registers,
    )
    prog = WORKLOADS[benchmark](scale=scale)
    provider = SnapshotProvider(prog, 25, config=config)
    golden = provider.golden
    spec = draw_spec(model, random.Random(seed), golden.cycles, config)
    cold = run_injection(prog, golden, spec, config)
    warm = run_injection(prog, golden, spec, config, snapshots=provider)
    assert warm == cold


# -- engine-level: campaigns equal the cold oracle ---------------------------


def _shows_both_shortcuts(results):
    """At least one result restored a snapshot and one ended early, so an
    equality with the cold oracle is not vacuous."""
    return any(r.warm_start_cycles_skipped > 0 for r in results) and any(
        r.early_terminated_cycle is not None for r in results
    )


def test_engine_campaigns_identical_across_intervals_and_jobs(programs):
    """``run_engine`` (snapshots every SNAPSHOT_INTERVAL cycles), serial
    and on two workers, and the same tasks from snapshots every 25 cycles
    all equal the cold oracle."""
    subset = {name: programs[name] for name in ("qsort", "dijkstra")}
    cold = cold_campaign(subset, 2, seed=5)
    serial = run_engine(subset, 2, seed=5)
    assert serial.results == cold.results
    assert _shows_both_shortcuts(serial.results)
    pooled = run_engine(
        subset, 2, seed=5, backend=ProcessPoolBackend(jobs=2)
    )
    assert pooled.results == cold.results
    providers = {
        name: SnapshotProvider(program, 25)
        for name, program in subset.items()
    }
    fine = [
        execute_task(
            task,
            subset[task.benchmark],
            providers[task.benchmark].golden,
            snapshots=providers[task.benchmark],
        )
        for task in generate_tasks(list(subset), 2, PRIMARY_MODELS, 5)
    ]
    assert fine == cold.results
    assert _shows_both_shortcuts(fine)


#: Two campaigns whose exports must not move by a byte between the cold
#: oracle and snapshots on two workers: all ten benchmarks at half scale,
#: and three whose leaks end by convergence up to identifier relabelling.
EXPORT_CAMPAIGNS = {
    "all-ten": dict(seed=1, runs=2, scale=0.5, benchmarks=list(WORKLOADS)),
    "relabelling": dict(
        seed=1000, runs=4, scale=1.0,
        benchmarks=["basicmath", "qsort", "susan"],
    ),
}


@pytest.mark.parametrize("name", EXPORT_CAMPAIGNS)
def test_pooled_exports_equal_the_cold_oracle_byte_for_byte(name):
    campaign = EXPORT_CAMPAIGNS[name]
    programs = {
        bench: WORKLOADS[bench](scale=campaign["scale"])
        for bench in campaign["benchmarks"]
    }
    cold = cold_campaign(programs, campaign["runs"], seed=campaign["seed"])
    pooled = run_engine(
        programs, campaign["runs"], seed=campaign["seed"],
        backend=ProcessPoolBackend(2),
    )
    assert to_csv(pooled) == to_csv(cold)
    assert to_json(pooled) == to_json(cold)
    assert _shows_both_shortcuts(pooled.results)
