"""Differential suffix execution: delta traces + convergence termination.

Warm starting (:mod:`repro.bugs.snapshot`) removes the bug-free *prefix*
of every injection run; the suffix — everything after the fault fires —
would still be simulated to completion even though the overwhelming
majority of injections are Benign or Masked and spend most of that suffix
bit-identical to the golden run. This module removes the redundant suffix
too, DejaVuzz-style, by running every snapshot-driven injection
*differentially* against the golden run:

1. **Golden delta trace.** The provider's instrumented golden run keeps
   every snapshot and, per snapshot cycle, the golden core's fingerprint,
   plus the golden persistence probe and whether every detector stayed
   silent (:class:`DeltaTrace`).

2. **Restore.** An injection restores the nearest snapshot strictly
   before its inject cycle (:meth:`DeltaTrace.first_perturbation`). The
   golden run logs no signal consults to forecast the exact activation
   cycle from: the first consult of an armed signal comes a median of 0–1
   cycles after the inject cycle (at most 50), far inside one snapshot
   interval, so a forecast would almost never move the restore point,
   while recording the consults would cost about 40% of every provider
   build (see EXPERIMENTS.md).

3. **Convergence-terminated suffixes.** After the fault fires, the variant
   is compared against the golden trace at every snapshot cycle: first a
   cheap :meth:`~repro.core.cpu.OoOCore.fingerprint` probe, then — only on
   a fingerprint hit — full structural state equality (:func:`converged`).
   The moment the machine state, the commit/output traces, and the
   detectors' *tracking* state are all back on the golden trajectory with
   no perturbation still pending, every future cycle is determined to be
   golden, so the run is classified immediately (Benign, golden final
   cycle, golden persistence) without simulating the rest.

Soundness of the convergence predicate (see EXPERIMENTS.md):

* ``fabric.any_armed`` must be False: an unfired bug can still perturb any
  future cycle, so no early exit while anything is pending. A spec whose
  signal is never consulted again therefore simulates to the end.
* Core state equality is *structural* over the complete
  :meth:`~repro.core.cpu.OoOCore.save_state` dict (minus ``stats``, which
  holds monotonic counters that do not influence future behavior or the
  classification), plus content equality of the output/commit traces
  against the golden prefixes (light-trace snapshots store lengths only).
  Dormant divergence — e.g. an at-rest free-list upset that will only be
  consumed hundreds of cycles later — lives in the compared state, so a
  dormant run can never be declared converged.
* Detector state is compared on its *tracking* projection only
  (``tracking_of``): XOR codes, bit vectors, counters, mirrors — not the
  recorded detections. A run whose detector fired and then recovered can
  converge; its detections are already recorded and are carried into the
  result unchanged.

The deep compare is the expensive path, so a failed deep compare backs off
exponentially (the fingerprint probe keeps running every candidate cycle);
this only delays termination and never affects the classification.
"""

from __future__ import annotations

from typing import Dict, Tuple, TYPE_CHECKING

from repro.bugs.models import BugSpec
from repro.core.rrs.signals import SignalFabric
from repro.idld.bitvector import BitVectorScheme
from repro.idld.checker import IDLDChecker
from repro.idld.counter import CounterScheme

if TYPE_CHECKING:  # pragma: no cover
    from repro.bugs.snapshot import SnapshotProvider
    from repro.core.cpu import OoOCore


class DeltaTrace:
    """Golden-run facts a converged injection replays instead of simulating.

    Attributes:
        fingerprints: Snapshot cycle -> the golden core's fingerprint there.
        golden_persists: The golden run's own persistence probe
            (``not census_is_clean()`` at HALT) — what any run that follows
            the golden trajectory to completion would measure.
        clean: True when the golden run halted with every detector silent;
            convergence is only checked for clean goldens (in practice
            goldens are always clean — this is a guard, not a policy).
    """

    __slots__ = ("fingerprints", "golden_persists", "clean")

    def __init__(
        self,
        fingerprints: Dict[int, tuple],
        golden_persists: bool,
        clean: bool,
    ) -> None:
        self.fingerprints = fingerprints
        self.golden_persists = golden_persists
        self.clean = clean

    def first_perturbation(self, spec: BugSpec) -> int:
        """The earliest cycle ``spec`` can perturb the variant.

        That is its inject cycle: a suppression or corruption armed for
        cycle ``c`` can fire during ``c`` itself, so every cycle before it
        is golden and a run may restore any snapshot taken at or before
        ``c - 1``.
        """
        return spec.inject_cycle


#: Per-detector tracking projections, in canonical attach order. Each maps
#: a detector ``save_state()`` tuple onto the components that influence
#: *future* observations — excluding the already-recorded detections, which
#: are results, not state the machine evolves on.
_TRACKING = (
    IDLDChecker.tracking_of,
    BitVectorScheme.tracking_of,
    CounterScheme.tracking_of,
)


def converged(
    provider: "SnapshotProvider",
    core: "OoOCore",
    detectors: Tuple[IDLDChecker, BitVectorScheme, CounterScheme],
    fabric: SignalFabric,
    cycle: int,
) -> bool:
    """The convergence predicate: may this variant terminate at ``cycle``?

    True only when *every* future cycle of the variant is provably the
    golden run's: nothing armed is still pending, and the variant's
    complete machine state — core structural state, output/commit trace
    contents, and detector tracking state — equals the golden run's
    snapshot at the same cycle. ``cycle`` must be a snapshot cycle of the
    provider; any other cycle is simply not a candidate.
    """
    if fabric.any_armed:
        return False
    reference = provider.delta.fingerprints.get(cycle)
    if reference is None or core.fingerprint() != reference:
        return False
    snapshot = provider.at(cycle)
    if snapshot is None:
        return False
    state = core.save_state(light_trace=True)
    golden_state = snapshot.core_state
    for key, value in state.items():
        if key != "stats" and value != golden_state[key]:
            return False
    # Light-trace states carry prefix *lengths*; equal lengths do not imply
    # equal contents (an SDC-in-progress can have committed the same number
    # of instructions with different values), so compare the actual traces
    # against the golden prefixes.
    out_len, committed = state["trace"]
    golden = provider.golden
    if core.output != golden.output[:out_len]:
        return False
    if core.commit_pcs != golden.commit_pcs[:committed]:
        return False
    if core.commit_cycles != golden.commit_cycles[:committed]:
        return False
    for detector, reference_state, tracking in zip(
        detectors, snapshot.detector_states, _TRACKING
    ):
        if tracking(detector.save_state()) != tracking(reference_state):
            # A detector whose tracking state desynced permanently (e.g. a
            # leaked ID stuck in the IDLD XOR code while the machine itself
            # recovered) only matters while its first detection is still
            # pending: detectors are pure observers, and the result records
            # first-detection cycles only. Once it has detected, its future
            # cannot change the classification.
            if detector.first_detection_cycle is None:
                return False
    return True
