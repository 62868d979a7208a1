"""Single-bug injection campaigns (the paper's Section IV methodology).

One campaign = for each benchmark x bug model, N independent runs, each
with exactly one bug activation at a random point of execution, classified
against the benchmark's golden run, with every detector attached:

* IDLD (the contribution),
* the bit-vector (BV) scheme,
* the counter scheme,
* traditional end-of-test checking.

The paper runs 3,000 injections per benchmark (30,000 total); campaign
sizes here are parameters so the pytest benches run laptop-scale samples
and the CLI harness can scale up (see EXPERIMENTS.md).
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, TYPE_CHECKING

from repro.analysis.outcomes import OutcomeClass
from repro.bugs.classify import classify_run, timeout_budget
from repro.bugs.differential import converged
from repro.bugs.injector import arm
from repro.bugs.models import BugModel, BugSpec, PRIMARY_MODELS
from repro.core.config import CoreConfig
from repro.core.cpu import OoOCore, RunResult
from repro.core.errors import SimulationError
from repro.core.rrs.signals import SignalFabric
from repro.idld.bitvector import BitVectorScheme
from repro.idld.checker import IDLDChecker
from repro.idld.counter import CounterScheme
from repro.idld.endoftest import end_of_test_check
from repro.isa.program import Program

if TYPE_CHECKING:  # pragma: no cover
    from repro.bugs.snapshot import SnapshotProvider
    from repro.exec.resilience import TaskFailureRecord


@dataclass
class InjectionResult:
    """Everything recorded about one bug injection run.

    The three trailing fields are measurement metadata, not simulation
    outcomes: they are excluded from equality so snapshot-driven and cold
    runs of the same spec compare equal, which is exactly the property the
    differential tests assert.
    """

    benchmark: str
    spec: BugSpec
    activated: bool
    activation_cycle: Optional[int]
    outcome: OutcomeClass
    manifestation_cycle: Optional[int]
    final_cycle: int
    persists: Optional[bool]
    idld_cycle: Optional[int]
    bv_cycle: Optional[int]
    counter_cycle: Optional[int]
    eot_detected: bool
    sim_wall_ns: Optional[int] = field(default=None, compare=False)
    warm_start_cycles_skipped: int = field(default=0, compare=False)
    #: Convergence measurement metadata (compare-excluded like the wall
    #: clock): None = the suffix was simulated to completion;
    #: c = the variant re-converged with the golden trajectory at snapshot
    #: cycle c and was classified there.
    early_terminated_cycle: Optional[int] = field(default=None, compare=False)

    @property
    def masked(self) -> bool:
        return self.outcome.masked

    @property
    def idld_detected(self) -> bool:
        return self.idld_cycle is not None

    @property
    def bv_detected(self) -> bool:
        return self.bv_cycle is not None

    @property
    def counter_detected(self) -> bool:
        return self.counter_cycle is not None

    @property
    def idld_latency(self) -> Optional[int]:
        if self.idld_cycle is None or self.activation_cycle is None:
            return None
        return self.idld_cycle - self.activation_cycle

    @property
    def bv_latency(self) -> Optional[int]:
        if self.bv_cycle is None or self.activation_cycle is None:
            return None
        return self.bv_cycle - self.activation_cycle

    @property
    def manifestation_latency(self) -> Optional[int]:
        if self.manifestation_cycle is None or self.activation_cycle is None:
            return None
        return max(0, self.manifestation_cycle - self.activation_cycle)


def run_golden(program: Program, config: Optional[CoreConfig] = None) -> RunResult:
    """Bug-free reference run of a program."""
    core = OoOCore(program, config=config)
    started = time.perf_counter_ns()
    result = core.run()
    if not result.halted:
        raise RuntimeError(f"golden run of {program.name} did not halt")
    result.stats["sim_wall_ns"] = time.perf_counter_ns() - started
    result.stats["warm_start_cycles_skipped"] = 0
    return result


def run_injection(
    program: Program,
    golden: RunResult,
    spec: BugSpec,
    config: Optional[CoreConfig] = None,
    snapshots: Optional["SnapshotProvider"] = None,
    deadline: Optional[float] = None,
) -> InjectionResult:
    """Execute one buggy run with all detectors attached and classify it.

    Without a provider this is the cold run: simulated from power-on to
    the timeout budget. It is the oracle every other path is checked
    against.

    With a :class:`~repro.bugs.snapshot.SnapshotProvider`, the bug-free
    prefix is skipped: the nearest snapshot *strictly before*
    ``spec.inject_cycle`` is restored. A suppression armed for cycle c can
    fire during cycle c itself, so the restore point must satisfy
    ``snapshot.cycle <= inject_cycle - 1``. The suffix is then simulated
    in chunks up to each snapshot cycle and terminates the moment the
    variant provably re-converges with the golden trajectory (see
    :mod:`repro.bugs.differential`). The result is bit-identical to the
    cold run; ``warm_start_cycles_skipped`` and ``early_terminated_cycle``
    record what was skipped.

    ``deadline`` (absolute ``time.monotonic()``) is the harness wall-clock
    budget; on expiry :class:`~repro.core.errors.DeadlineExceeded`
    propagates to the execution layer — it is *not* a simulated outcome
    and is never classified as one.
    """
    started = time.perf_counter_ns()
    fabric = SignalFabric()
    armed = arm(spec, fabric)
    idld = IDLDChecker()
    bv = BitVectorScheme()
    counter = CounterScheme()
    detectors = (idld, bv, counter)
    core = OoOCore(
        program, config=config, observers=list(detectors), fabric=fabric
    )
    skipped = 0
    delta = None
    if snapshots is not None:
        delta = snapshots.delta
        snap = snapshots.nearest(delta.first_perturbation(spec) - 1)
        if snap is not None:
            snapshots.restore_into(snap, core, detectors)
            skipped = snap.cycle
    budget = timeout_budget(golden)
    early_cycle: Optional[int] = None
    error: Optional[Exception] = None
    try:
        if delta is None or not delta.clean:
            core.run_cycles(budget, deadline=deadline)
        else:
            early_cycle = _run_until_converged(
                snapshots, core, detectors, fabric, budget, deadline
            )
    except SimulationError as exc:
        error = exc
    if early_cycle is not None:
        # State, traces, and detector tracking are back on the golden
        # trajectory with nothing pending: every remaining cycle replays
        # the golden run, so the full-suffix result is fully determined.
        outcome = OutcomeClass.BENIGN
        manifestation_cycle = None
        final_cycle = golden.cycles
        persists: Optional[bool] = delta.golden_persists
    else:
        result = core.result()
        classification = classify_run(program, golden, result, error)
        outcome = classification.outcome
        manifestation_cycle = classification.manifestation_cycle
        final_cycle = result.cycles
        persists = None
        if error is None and result.halted:
            persists = not core.census_is_clean()
    eot = end_of_test_check(outcome, final_cycle)
    return InjectionResult(
        benchmark=program.name,
        spec=spec,
        activated=armed.fired,
        activation_cycle=armed.fired_cycle,
        outcome=outcome,
        manifestation_cycle=manifestation_cycle,
        final_cycle=final_cycle,
        persists=persists,
        idld_cycle=idld.first_detection_cycle,
        bv_cycle=bv.first_detection_cycle,
        counter_cycle=counter.first_detection_cycle,
        eot_detected=eot.detected,
        sim_wall_ns=time.perf_counter_ns() - started,
        warm_start_cycles_skipped=skipped,
        early_terminated_cycle=early_cycle,
    )


#: Exponential-backoff cap on the deep-compare stride, in snapshot
#: intervals. A dormant divergence (fingerprint-equal, state-unequal) stops
#: paying a full structural compare every interval; the cap bounds how far
#: past the true convergence point a run can terminate.
_MAX_DEEP_STRIDE = 32


def _run_until_converged(
    snapshots: "SnapshotProvider",
    core: OoOCore,
    detectors,
    fabric: SignalFabric,
    budget: int,
    deadline: Optional[float],
) -> Optional[int]:
    """Run ``core`` to ``budget`` in chunks ending at each snapshot cycle.

    Returns the snapshot cycle at which the variant provably re-converged
    with the golden run (:func:`converged`), or None when it halted or
    reached ``budget`` first.
    """
    fingerprints = snapshots.delta.fingerprints
    candidates = snapshots.candidate_cycles
    pos = bisect_right(candidates, core.cycle)
    skip_deep_until = 0
    stride = 1
    clock_origin: Optional[float] = None
    while not core.halted and core.cycle < budget:
        target = candidates[pos] if pos < len(candidates) else budget
        if target > budget:
            target = budget
        clock_origin = core.run_cycles(
            target, deadline=deadline, started=clock_origin
        )
        if core.halted or core.cycle >= budget:
            break
        pos += 1
        cycle = core.cycle
        if fabric.any_armed:
            continue
        reference = fingerprints.get(cycle)
        if reference is None or core.fingerprint() != reference:
            continue
        if cycle < skip_deep_until:
            continue
        if converged(snapshots, core, detectors, fabric, cycle):
            return cycle
        skip_deep_until = cycle + stride * snapshots.interval
        if stride < _MAX_DEEP_STRIDE:
            stride <<= 1
    return None


@dataclass
class CampaignResult:
    """All injection results of a campaign, with figure-level aggregations.

    ``failures`` holds the quarantined tasks — injections the execution
    layer gave up on (exception / timeout / worker-crash) after exhausting
    their retry budget. They are *excluded* from ``results`` and therefore
    from every figure aggregation; reports and exports surface them so a
    reproduction with too many quarantines is visibly suspect.
    """

    results: List[InjectionResult] = field(default_factory=list)
    goldens: Dict[str, RunResult] = field(default_factory=dict)
    failures: List["TaskFailureRecord"] = field(default_factory=list)

    @property
    def quarantined(self) -> int:
        """How many tasks were quarantined instead of completed."""
        return len(self.failures)

    # -- generic filters -------------------------------------------------------

    def of(
        self,
        benchmark: Optional[str] = None,
        model: Optional[BugModel] = None,
    ) -> List[InjectionResult]:
        out = self.results
        if benchmark is not None:
            out = [r for r in out if r.benchmark == benchmark]
        if model is not None:
            out = [r for r in out if r.spec.model is model]
        return out

    @property
    def benchmarks(self) -> List[str]:
        seen: List[str] = []
        for r in self.results:
            if r.benchmark not in seen:
                seen.append(r.benchmark)
        return seen

    @property
    def never_activated(self) -> int:
        """Injections whose armed signal was never exercised, even after
        all redraw attempts (reported, not silently dropped)."""
        return sum(1 for r in self.results if not r.activated)

    # -- Figure 3: masked fraction per benchmark x model -----------------------------

    def masked_fraction(
        self, benchmark: Optional[str] = None, model: Optional[BugModel] = None
    ) -> float:
        rows = self.of(benchmark, model)
        if not rows:
            return 0.0
        return sum(1 for r in rows if r.masked) / len(rows)

    # -- Figure 4: persistence of masked bugs ------------------------------------------

    def persistence_fraction(self, benchmark: Optional[str] = None) -> float:
        masked = [r for r in self.of(benchmark) if r.masked]
        if not masked:
            return 0.0
        return sum(1 for r in masked if r.persists) / len(masked)

    # -- Figure 5: manifestation latencies ------------------------------------------------

    def manifestation_latencies(self, masked_side_effects: bool) -> List[int]:
        """Latencies for the non-masked (green) or side-effect-masked (red)
        populations of Figure 5."""
        out = []
        for r in self.results:
            if masked_side_effects:
                if not r.outcome.has_side_effect:
                    continue
            elif r.masked:
                continue
            latency = r.manifestation_latency
            if latency is not None:
                out.append(latency)
        return out

    # -- Figure 8: outcome breakdown --------------------------------------------------------

    def outcome_breakdown(
        self,
        benchmark: Optional[str] = None,
        models: Sequence[BugModel] = (BugModel.DUPLICATION, BugModel.LEAKAGE),
    ) -> Dict[OutcomeClass, int]:
        counts = {outcome: 0 for outcome in OutcomeClass}
        for r in self.of(benchmark):
            if r.spec.model in models:
                counts[r.outcome] += 1
        return counts

    # -- Figures 9/10: detection coverage -------------------------------------------------------

    def coverage(self) -> Dict[str, float]:
        """Detection coverage per method over all activated injections."""
        rows = [r for r in self.results if r.activated]
        if not rows:
            return {
                "idld": 0.0,
                "end_of_test": 0.0,
                "bv": 0.0,
                "end_of_test+bv": 0.0,
                "bv_first": 0.0,
            }
        total = len(rows)
        idld = sum(1 for r in rows if r.idld_detected)
        eot = sum(1 for r in rows if r.eot_detected)
        bv = sum(1 for r in rows if r.bv_detected)
        either = sum(1 for r in rows if r.eot_detected or r.bv_detected)
        bv_first = sum(
            1
            for r in rows
            if r.bv_detected
            and (not r.eot_detected or r.bv_cycle < r.final_cycle)
        )
        return {
            "idld": idld / total,
            "end_of_test": eot / total,
            "bv": bv / total,
            "end_of_test+bv": either / total,
            "bv_first": bv_first / total,
        }

    def detection_latencies(self, method: str) -> List[int]:
        """Per-run detection latency for ``method`` ('idld' or 'bv')."""
        out = []
        for r in self.results:
            latency = r.idld_latency if method == "idld" else r.bv_latency
            if latency is not None:
                out.append(latency)
        return out


def run_campaign(
    programs: Dict[str, Program],
    runs_per_model: int,
    models: Iterable[BugModel] = PRIMARY_MODELS,
    seed: int = 1,
    config: Optional[CoreConfig] = None,
    max_attempts: int = 6,
    snapshot_interval: int = 0,
    batch_size: int = 1,
) -> CampaignResult:
    """Run a full injection campaign (serially; see :mod:`repro.exec`).

    This is a thin façade over the task engine: each injection draws from
    a task-local seed derived from ``seed`` by stable hash, so the result
    is bit-identical to the same campaign run on any parallel backend.

    Args:
        programs: benchmark name -> program.
        runs_per_model: Injections per (benchmark, model) pair.
        models: Bug models to exercise (the paper's three by default).
        seed: Master seed; every draw derives from it deterministically.
        config: Core configuration (paper defaults when None).
        max_attempts: Redraws allowed until an injection actually fires
            (an armed signal nobody exercises has no effect); must be >= 1.
        snapshot_interval: Golden snapshot period in cycles; 0 runs every
            injection cold, from power-on to the end. Any value yields
            bit-identical campaign results — it is purely a throughput
            knob (warm starts and convergence-terminated suffixes, see
            :mod:`repro.bugs.differential`).
        batch_size: Dispatch batching of same-(benchmark, window) tasks;
            1 disables. Bit-identical results for any size.

    Returns:
        The populated :class:`CampaignResult`.
    """
    from repro.exec.engine import run_engine  # local: exec imports this module

    return run_engine(
        programs,
        runs_per_model,
        models=models,
        seed=seed,
        config=config,
        max_attempts=max_attempts,
        snapshot_interval=snapshot_interval,
        batch_size=batch_size,
    )
