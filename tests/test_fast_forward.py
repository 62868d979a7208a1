"""Property suite for the quiescence-aware fast-forward engine.

Fast-forward (cpu.py `_try_fast_forward`) bulk-advances over provably
event-free cycle spans instead of stepping them one by one. It is a pure
throughput knob: every test here asserts that a fast-forwarding core is
*indistinguishable* from a lockstep core — identical full `save_state`
snapshots, identical detector states, identical exceptions (including the
`DeadlockError` cycle), across random programs, injected-bug aftermaths,
and the whole width x free-list-discipline x recovery-strategy matrix.
"""

import hashlib

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import CoreConfig, OoOCore
from repro.core.config import FREE_LIST_DISCIPLINES, RECOVERY_STRATEGIES
from repro.core.errors import DeadlockError, SimulationError
from repro.core.rrs.ports import RRSObserver
from repro.core.rrs.signals import ArrayName, SignalFabric, SignalKind
from repro.idld import BitVectorScheme, CounterScheme, IDLDChecker
from repro.isa.instructions import Opcode
from repro.workloads.generator import random_program

SLOW = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: The full sweep matrix: 4 widths x 2 disciplines x 3 recoveries = 24 cells.
CELLS = [
    (width, discipline, recovery)
    for width in (1, 2, 4, 8)
    for discipline in FREE_LIST_DISCIPLINES
    for recovery in RECOVERY_STRATEGIES
]

#: Injectable one-shot bugs whose aftermath (leaks, duplications, wedges,
#: recovery storms) must look identical under fast-forward and lockstep.
BUGS = [
    (ArrayName.FL, SignalKind.READ_ENABLE),
    (ArrayName.FL, SignalKind.WRITE_ENABLE),
    (ArrayName.ROB, SignalKind.READ_ENABLE),
    (ArrayName.ROB, SignalKind.WRITE_ENABLE),
    (ArrayName.RHT, SignalKind.WRITE_ENABLE),
]


def _cell_config(width, discipline, recovery, **overrides):
    base = dict(
        width=width,
        free_list_discipline=discipline,
        recovery_strategy=recovery,
        num_physical_regs=48,
        rob_entries=24,
        checkpoint_interval=8,
    )
    base.update(overrides)
    return CoreConfig(**base)


def _run_one(program, config, enable_ff, budget, bug=None):
    """Run a core to ``budget`` cycles; return (core, detectors, error)."""
    fabric = SignalFabric()
    if bug is not None:
        array, kind, at_cycle = bug
        fabric.arm_suppression(array, kind, at_cycle)
    detectors = [IDLDChecker(), BitVectorScheme(), CounterScheme()]
    core = OoOCore(program, config=config, observers=detectors, fabric=fabric)
    # Pin the engine: the stock detectors are bulk-replayable, so the
    # replay tuple is built either way and the pair compare below
    # exercises fast-forward vs lockstep.
    core.fast_forward_enabled = enable_ff
    error = None
    try:
        core.run_cycles(budget)
    except SimulationError as exc:
        error = exc
    return core, detectors, error


def _state_digest(core, detectors):
    """One digest over the full core snapshot + every detector snapshot."""
    blob = repr((core.save_state(), [d.save_state() for d in detectors]))
    return hashlib.sha256(blob.encode()).hexdigest()


def _assert_indistinguishable(program, config, budget, bug=None):
    """The load-bearing oracle: fast-forward vs lockstep on the same run."""
    ff_core, ff_det, ff_err = _run_one(program, config, True, budget, bug)
    lk_core, lk_det, lk_err = _run_one(program, config, False, budget, bug)
    assert lk_core.ff_cycles_skipped == 0
    assert type(ff_err) is type(lk_err), (ff_err, lk_err)
    if ff_err is not None:
        assert str(ff_err) == str(lk_err)
        if isinstance(ff_err, DeadlockError):
            assert ff_err.cycle == lk_err.cycle
    assert ff_core.cycle == lk_core.cycle
    assert ff_core.halted == lk_core.halted
    assert ff_core.save_state() == lk_core.save_state()
    for ff_d, lk_d in zip(ff_det, lk_det):
        assert ff_d.save_state() == lk_d.save_state(), type(ff_d).__name__
        assert ff_d.detected == lk_d.detected
    assert _state_digest(ff_core, ff_det) == _state_digest(lk_core, lk_det)
    return ff_core


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    cell=st.sampled_from(CELLS),
)
@SLOW
def test_fast_forward_matches_lockstep_clean(seed, cell):
    """Clean runs: identical snapshots on every sweep cell."""
    program = random_program(seed, blocks=3, block_len=5, max_loop_iters=5)
    config = _cell_config(*cell)
    core = _assert_indistinguishable(program, config, budget=200_000)
    assert core.halted  # random programs halt; the pair ran to completion


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    cell=st.sampled_from(CELLS),
    bug=st.sampled_from(BUGS),
    at_cycle=st.integers(min_value=1, max_value=400),
)
@SLOW
def test_fast_forward_matches_lockstep_with_injected_bug(
    seed, cell, bug, at_cycle
):
    """Bug aftermaths — leaks, duplications, recovery storms, wedges,
    timeouts — must be bit-identical under fast-forward, including the
    exception type, message, and cycle when the run dies."""
    program = random_program(seed, blocks=3, block_len=5, max_loop_iters=5)
    config = _cell_config(*cell, deadlock_cycles=2_000)
    array, kind = bug
    _assert_indistinguishable(
        program, config, budget=50_000, bug=(array, kind, at_cycle)
    )


def test_fast_forward_actually_skips_on_stall_heavy_run():
    """With long-latency ops on a narrow core the front end wedges against
    full buffers, opening quiescent spans fast-forward must exploit: the
    skip counter is the whole point of the engine, so prove it fires."""
    program = random_program(7, blocks=4, block_len=6, max_loop_iters=6)
    latencies = dict(CoreConfig().latencies)
    latencies[Opcode.MUL] = 40
    latencies[Opcode.DIV] = 80
    latencies[Opcode.REM] = 80
    latencies[Opcode.LD] = 30
    config = _cell_config(
        1, "fifo", "checkpoint", fetch_buffer_entries=2, latencies=latencies
    )
    core = _assert_indistinguishable(program, config, budget=500_000)
    assert core.halted
    assert core.ff_cycles_skipped > 0


def test_deadlock_wedge_identical_under_fast_forward():
    """A single-identifier free pool plus one FL write suppression leaks
    the only spare Pdst: rename starves forever and the core wedges. The
    fast-forwarding core must report the exact same DeadlockError cycle as
    lockstep, and must have skipped cycles inside the wedge window (the
    post-drain wedge is the canonical quiescent span)."""
    program = random_program(3, blocks=4, block_len=6, max_loop_iters=6)
    config = _cell_config(
        4, "fifo", "checkpoint",
        num_physical_regs=33,  # 32 logical + 1: pool of exactly one
        rob_entries=24,
        checkpoint_interval=8,
        deadlock_cycles=1_000,
    )
    ff_core = _assert_indistinguishable(
        program, config, budget=500_000,
        bug=(ArrayName.FL, SignalKind.WRITE_ENABLE, 50),
    )
    _, _, err = _run_one(
        program, config, True, 500_000,
        bug=(ArrayName.FL, SignalKind.WRITE_ENABLE, 50),
    )
    assert isinstance(err, DeadlockError)
    assert ff_core.ff_cycles_skipped > 0


class _CycleTap(RRSObserver):
    """Adversarial listener: overrides a per-cycle hook but does NOT
    implement the bulk-replay ``fast_forward`` protocol."""

    def __init__(self):
        self.cycles = []

    def cycle_end(self, cycle):
        self.cycles.append(cycle)


def test_listener_without_fast_forward_forces_lockstep():
    """An observer that overrides ``cycle_end``/``pipeline_empty`` without
    providing ``fast_forward`` cannot be bulk-replayed; the core must fall
    back to lockstep entirely rather than skip cycles the listener would
    have observed."""
    program = random_program(7, blocks=3, block_len=5, max_loop_iters=5)
    tap = _CycleTap()
    core = OoOCore(program, observers=[tap])
    assert core.fast_forward_enabled is False
    result = core.run()
    assert result.halted
    assert core.ff_cycles_skipped == 0
    assert tap.cycles == list(range(1, core.cycle + 1))


def test_detectors_satisfy_bulk_replay_protocol():
    """The stock detector zoo implements ``fast_forward`` so it never
    disables the engine."""
    program = random_program(1, blocks=2, block_len=4, max_loop_iters=3)
    core = OoOCore(
        program,
        observers=[IDLDChecker(), BitVectorScheme(), CounterScheme()],
    )
    assert core.fast_forward_enabled is True
