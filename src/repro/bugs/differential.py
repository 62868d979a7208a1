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
   the fewest identifiers its free list holds from there to HALT and its
   first pipeline-empty cycle after it, plus the golden persistence probe
   and whether every detector stayed silent (:class:`DeltaTrace`).

2. **Restore.** An injection restores the nearest snapshot strictly
   before its inject cycle (:meth:`DeltaTrace.first_perturbation`). The
   golden run logs no signal consults to forecast the exact activation
   cycle from: the first consult of an armed signal comes a median of 0–1
   cycles after the inject cycle (at most 50), far inside one snapshot
   interval, so a forecast would almost never move the restore point,
   while recording the consults would cost about 40% of every provider
   build (see ENGINEERING.md, "Golden provider builds").

3. **Convergence-terminated suffixes.** Once the fault has fired and
   IDLD has latched, the variant is checked against the golden trace at
   every snapshot cycle: first a cheap
   :meth:`~repro.core.cpu.OoOCore.fingerprint` prefilter, then the one
   convergence predicate, :func:`converged`. It asks whether the variant
   is the golden state under a renaming of identifiers, with ``k >= 0``
   identifiers missing from its free list; exact convergence is the
   identity map with ``k = 0``. The core never looks at an identifier's
   value, only at which structures hold it, so from such a state every
   future cycle replays the golden run's, and the run is classified
   there: Benign at the golden final cycle, persisting iff ``k >= 1``,
   with any pending BV or counter detection placed at the golden's next
   pipeline-empty cycle.

Soundness is argued in ENGINEERING.md ("Injections stop paying once their
result is fixed"). In short:

* Nothing may be armed: an unfired bug can still perturb any future
  cycle, so a spec whose signal is never consulted again simulates to the
  end.
* Every core operation either ignores identifier values or uses them as
  opaque keys (equality, array index), except the shared zero register,
  which the map fixes. Every other field of
  :meth:`~repro.core.cpu.OoOCore.save_state` (minus ``stats``, monotonic
  counters that influence neither future behaviour nor the
  classification) and the output/commit trace contents must equal the
  golden's. Dormant divergence, such as an at-rest free-list upset that
  is consumed hundreds of cycles later, lives in the compared state, so a
  dormant run never converges.
* The free list is the one place the variant may hold fewer identifiers.
  With ``k >= 1``, no rename gate sees the difference while the golden
  free list keeps ``k + width`` or more; with ``k = 0`` both lists hold
  equally many, so no gate can tell them apart.
* IDLD must have latched, because its XOR code does depend on identifier
  values. Results record first detections only, so a latched detector's
  future cannot change them, and the injection loop detaches each
  detector once it has latched (:meth:`OoOCore.detach`). BV and the
  counter must have latched too, or mirror the variant's free list.

The predicate is the expensive path, so a refusal backs off
exponentially (the fingerprint prefilter keeps running every candidate
cycle); this only delays termination and never affects the
classification.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple, TYPE_CHECKING

from repro.bugs.models import BugSpec
from repro.core.rrs.signals import SignalFabric
from repro.core.uop import Uop
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
            convergence is only checked for clean goldens. Not every
            golden is: with zero-idiom elimination on, BV and the counter,
            which do not model the shared zero register, fire at HALT on
            every scale-1 golden, so no such injection ends early.
        free_floor: Snapshot cycle -> the fewest identifiers the golden
            free list holds from that cycle to HALT.
        next_empty: Snapshot cycle -> the first later cycle that delivers a
            ``pipeline_empty`` event in the golden run, or None.
    """

    __slots__ = (
        "fingerprints", "golden_persists", "clean", "free_floor", "next_empty"
    )

    def __init__(
        self,
        fingerprints: Dict[int, tuple],
        golden_persists: bool,
        clean: bool,
        free_floor: Dict[int, int],
        next_empty: Dict[int, Optional[int]],
    ) -> None:
        self.fingerprints = fingerprints
        self.golden_persists = golden_persists
        self.clean = clean
        self.free_floor = free_floor
        self.next_empty = next_empty

    def first_perturbation(self, spec: BugSpec) -> int:
        """The earliest cycle ``spec`` can perturb the variant.

        That is its inject cycle: a suppression or corruption armed for
        cycle ``c`` can fire during ``c`` itself, so every cycle before it
        is golden and a run may restore any snapshot taken at or before
        ``c - 1``.
        """
        return spec.inject_cycle


def _same_traces(core: "OoOCore", golden, trace: tuple) -> bool:
    """Light-trace states carry prefix *lengths*; equal lengths do not imply
    equal contents (an SDC-in-progress can have committed the same number
    of instructions with different values), so compare the actual traces
    against the golden prefixes."""
    out_len, committed = trace
    return (
        core.output == golden.output[:out_len]
        and core.commit_pcs == golden.commit_pcs[:committed]
        and core.commit_cycles == golden.commit_cycles[:committed]
    )


class Reconvergence(NamedTuple):
    """Where a variant rejoined the golden run, and what that fixes."""

    cycle: int
    #: Identifiers the variant's free list lacks against the golden's
    #: (``k``; 0 when both hold equally many).
    missing: int
    #: BV and counter first detections: recorded, or predicted by
    #: :func:`converged`.
    bv_cycle: Optional[int]
    counter_cycle: Optional[int]


#: ``save_state`` keys that hold identifiers; :func:`converged` maps them,
#: and every other key except ``stats`` must equal the golden's.
_RELABELLED = frozenset(
    ("uops", "rat", "rob", "rht", "ckpt", "recovery", "free_list", "prf")
)


def converged(
    provider: "SnapshotProvider",
    core: "OoOCore",
    detectors: Tuple[IDLDChecker, BitVectorScheme, CounterScheme],
    fabric: SignalFabric,
    cycle: int,
) -> Optional[Reconvergence]:
    """The convergence predicate: may this variant end at snapshot ``cycle``?

    Returns the fixed result facts when the variant is the golden state
    under one injective identifier map, with ``k`` identifiers missing
    from its free list, and nothing can tell the two apart for the rest
    of the run; otherwise None. Exact convergence is the identity map
    with ``k = 0``. Every condition is listed in ENGINEERING.md with its
    reason:

    * nothing is armed, IDLD has latched, and the golden run is clean and
      does not persist;
    * every field without an identifier, and the trace contents, equal
      the golden's;
    * one injective map, fixing the shared zero register, sends the
      variant's identifiers to the golden's across uops, the RAT, live ROB
      entries, live RHT entries, valid checkpoint images and walk-recovery
      records, and registers not free agree in their ready bits and, where
      ready, their values; the ROB reclaim pointer equals the golden's, so
      it does not lag;
    * the variant's free list maps, in delivery order, onto the golden's
      with ``k >= 0`` entries missing;
    * BV and the counter have latched, or mirror the variant's free list;
    * with ``k >= 1``, the golden free list holds at least ``k + width``
      identifiers from ``cycle`` to HALT.
    """
    delta = provider.delta
    idld, bv, counter = detectors
    if (
        fabric.any_armed
        or idld.first_detection_cycle is None
        or not delta.clean
        or delta.golden_persists
        or core.parity
    ):
        return None
    reference = delta.fingerprints.get(cycle)
    if reference is None:
        return None
    # The free-list count is the fingerprint's last component.
    fingerprint = core.fingerprint()
    missing = reference[-1] - fingerprint[-1]
    if (
        missing < 0
        or fingerprint[:-1] != reference[:-1]
        or (missing and delta.free_floor[cycle] < missing + core.config.width)
    ):
        return None
    golden_state = provider.at(cycle).core_state
    state = core.save_state(light_trace=True)
    for key, value in state.items():
        if key not in _RELABELLED and key != "stats":
            if value != golden_state[key]:
                return None
    if not _same_traces(core, provider.golden, state["trace"]):
        return None
    free = core.free_list.contents()
    if not _maps_onto_golden(core, state, golden_state, free):
        return None
    next_empty = delta.next_empty[cycle]
    predicted = []
    for detector in (bv, counter):
        first = detector.first_detection_cycle
        if first is None:
            if not detector.mirrors(free):
                return None
            # It counts k fewer free identifiers than the golden detector,
            # which never fires, so it fires at its next check iff k >= 1.
            if missing and detector.enabled:
                first = next_empty
        predicted.append(first)
    return Reconvergence(cycle, missing, predicted[0], predicted[1])


def _maps_onto_golden(
    core: "OoOCore", state: dict, golden: dict, free: List[int]
) -> bool:
    """True when one injective identifier map sends the identifier fields
    of ``state`` onto ``golden``'s (see :func:`converged`)."""
    zero = core.zero_pdst
    limit = core.config.num_physical_regs
    forward: Dict[int, int] = {}
    backward: Dict[int, int] = {}
    if zero is not None:
        forward[zero] = backward[zero] = zero

    def bind(pdst: int, image: int) -> bool:
        known = forward.get(pdst)
        if known is not None:
            return known == image
        if image in backward or not 0 <= pdst < limit:
            return False
        forward[pdst] = image
        backward[image] = pdst
        return True

    uops, golden_uops = state["uops"], golden["uops"]
    if len(uops) != len(golden_uops):
        return False
    pairs = [
        (Uop.split_identifiers(uop), Uop.split_identifiers(other))
        for uop, other in zip(uops, golden_uops)
    ]
    pairs += [
        (split(state[key]), split(golden[key]))
        for key, split in (
            ("rat", core.rat.split_identifiers),
            ("rob", core.rob.split_identifiers),
            ("rht", core.rht.split_identifiers),
            ("ckpt", core.ckpt.split_identifiers),
            ("recovery", core.recovery_strategy.split_identifiers),
        )
    ]
    for (plain, ids), (golden_plain, golden_ids) in pairs:
        # Equal plain parts imply as many identifiers on both sides.
        if plain != golden_plain or not all(map(bind, ids, golden_ids)):
            return False
    # Free list: in delivery order onto the golden's, skipping exactly the
    # k missing entries. An identifier no other field names takes the next
    # golden entry no other field names.
    golden_free = core.free_list.contents_of(golden["free_list"])
    position = 0
    for pdst in free:
        image = forward.get(pdst)
        while position < len(golden_free) and (
            golden_free[position] in backward
            if image is None
            else golden_free[position] != image
        ):
            position += 1
        if position == len(golden_free):
            return False
        if not bind(pdst, golden_free[position]):
            return False
        position += 1
    # PRF: a value is read only once its ready bit is set, and only the
    # producer's writeback sets it, so the value of a pending register is
    # dead; so are both fields of a free one (allocation marks it pending).
    values, ready = state["prf"]
    golden_values, golden_ready = golden["prf"]
    golden_free_set = set(golden_free)
    for pdst, image in forward.items():
        if image not in golden_free_set and (
            ready[pdst] != golden_ready[image]
            or (ready[pdst] and values[pdst] != golden_values[image])
        ):
            return False
    return True
