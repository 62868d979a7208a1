"""Golden snapshot provider for injection campaigns.

An injection run is a golden run up to the moment the armed bug first
perturbs the machine: the fabric's suppressions and corruptions are inert
until ``fabric.cycle`` reaches their ``from_cycle``. A campaign therefore
re-simulates the same bug-free prefix thousands of times — once per
injection — just to arrive at a different ``inject_cycle``.

:class:`SnapshotProvider` removes that redundancy. It performs one
instrumented golden run per (benchmark, config) with the standard detector
set attached, capturing a cheap :meth:`~repro.core.cpu.OoOCore.save_state`
snapshot and a fingerprint every ``interval`` cycles, and
:func:`repro.bugs.campaign.run_injection` then restores the nearest
snapshot *strictly before* the injection cycle and simulates only the
suffix, until it re-converges with the golden run
(:mod:`repro.bugs.differential`).

Correctness hinges on the strictness: a suppression armed for cycle ``c``
can fire during cycle ``c`` itself (the fabric is consulted with
``fabric.cycle >= from_cycle``), so the newest safe snapshot is the one
taken at the end of cycle ``c - 1``. Snapshots use ``light_trace`` mode —
output/commit traces are stored as prefix lengths and sliced back out of
the provider's own golden :class:`~repro.core.cpu.RunResult` on restore,
keeping per-snapshot cost proportional to pipeline occupancy, not to how
long the program has been running.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

from repro.bugs.differential import DeltaTrace
from repro.core.config import CoreConfig
from repro.core.cpu import OoOCore, RunResult
from repro.idld.bitvector import BitVectorScheme
from repro.idld.checker import IDLDChecker
from repro.idld.counter import CounterScheme
from repro.isa.program import Program


class CoreSnapshot:
    """One captured machine state: core + the three attached detectors."""

    __slots__ = ("cycle", "core_state", "detector_states")

    def __init__(
        self,
        cycle: int,
        core_state: dict,
        detector_states: Tuple[tuple, tuple, tuple],
    ) -> None:
        self.cycle = cycle
        self.core_state = core_state
        self.detector_states = detector_states


def make_detectors() -> Tuple[IDLDChecker, BitVectorScheme, CounterScheme]:
    """The standard campaign detector set, in canonical attach order."""
    return (IDLDChecker(), BitVectorScheme(), CounterScheme())


class SnapshotProvider:
    """Periodic golden-run snapshots and the golden delta trace of one
    (benchmark, config) pair.

    Attributes:
        golden: The bug-free :class:`RunResult` of the instrumented run —
            bit-identical to :func:`repro.bugs.campaign.run_golden` because
            the detectors are pure observers.
        interval: Capture period in cycles (must be >= 1).
        delta: The golden :class:`~repro.bugs.differential.DeltaTrace`:
            per-snapshot fingerprints, persistence and detector silence.
    """

    def __init__(
        self,
        program: Program,
        interval: int,
        config: Optional[CoreConfig] = None,
        max_cycles: int = 2_000_000,
    ) -> None:
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        self.program = program
        self.interval = interval
        self.config = config
        detectors = make_detectors()
        core = OoOCore(program, config=config, observers=list(detectors))
        # Every snapshot is kept, not only those in the injection-draw
        # window: the convergence candidates lie past it.
        snapshots: List[CoreSnapshot] = []
        fingerprints: Dict[int, tuple] = {}
        started = time.perf_counter_ns()
        # The golden run uses the injections' own stepping loop (deadlock
        # check, quiescence fast-forward), paused at every multiple of
        # ``interval`` to capture.
        while True:
            core.run_cycles(min(core.cycle + interval, max_cycles))
            if core.halted or core.cycle >= max_cycles:
                break
            snapshots.append(
                CoreSnapshot(
                    core.cycle,
                    core.save_state(light_trace=True),
                    tuple(d.save_state() for d in detectors),
                )
            )
            fingerprints[core.cycle] = core.fingerprint()
        self.golden = core.result()
        if not self.golden.halted:
            raise RuntimeError(
                f"golden run of {program.name} did not halt"
            )
        # Same measurement keys run_golden stamps, so a provider-supplied
        # golden is interchangeable with a plain one.
        self.golden.stats["sim_wall_ns"] = time.perf_counter_ns() - started
        self.golden.stats["warm_start_cycles_skipped"] = 0
        self.delta = DeltaTrace(
            fingerprints=fingerprints,
            golden_persists=not core.census_is_clean(),
            clean=all(d.first_detection_cycle is None for d in detectors),
        )
        self._snapshots = snapshots
        self._cycles = [s.cycle for s in snapshots]
        self._by_cycle = {s.cycle: s for s in snapshots}

    @property
    def count(self) -> int:
        return len(self._snapshots)

    @property
    def candidate_cycles(self) -> List[int]:
        """All snapshot cycles, ascending — the convergence-check points."""
        return self._cycles

    def nearest(self, cycle: int) -> Optional[CoreSnapshot]:
        """The latest snapshot taken at or before ``cycle``, if any."""
        pos = bisect_right(self._cycles, cycle)
        if pos == 0:
            return None
        return self._snapshots[pos - 1]

    def at(self, cycle: int) -> Optional[CoreSnapshot]:
        """The snapshot taken at exactly ``cycle``, if any."""
        return self._by_cycle.get(cycle)

    def restore_into(
        self,
        snapshot: CoreSnapshot,
        core: OoOCore,
        detectors: Tuple[IDLDChecker, BitVectorScheme, CounterScheme],
    ) -> None:
        """Load ``snapshot`` into a freshly-built core + detector set.

        The core's own fabric (with whatever the caller armed on it) is
        preserved; only its clock is synchronized to the snapshot cycle.
        """
        core.load_state(snapshot.core_state, trace_source=self.golden)
        for detector, state in zip(detectors, snapshot.detector_states):
            detector.load_state(state)
