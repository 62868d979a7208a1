"""Checkpoint table: periodic RAT snapshots for fast flush recovery.

"CKPT is used to take regularly snapshots of the RAT... The Checkpoint
signal is generated at regular intervals; in our design at every fixed
number of ROB entry allocations" (Sections II, III.A).

A checkpoint records the RAT image plus the rename-sequence position and
the RHT write-pointer position at capture time; recovery selects "the
closest previous checkpoint to the offending instruction" and walks the
RHT forward from the recorded position.

The content capture is gated by the CKPT checkpoint signal. A suppressed
capture updates the slot's position metadata while the array keeps its
stale image -- the Section III.C scenario where the RAT "is recovered from
a wrong checkpoint since the correct checkpoint was not taken".

Slot lifetime: one *anchor* checkpoint (the youngest at or below the commit
point) is always retained so that any flush -- whose offender is by
definition uncommitted -- finds a usable snapshot; older slots are freed as
the anchor advances, and younger slots are freed when a flush squashes past
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.rrs.ports import RRSObserver, listeners
from repro.core.rrs.signals import ArrayName, SignalFabric, SignalKind


@dataclass
class CheckpointSlot:
    """One CKPT entry."""

    index: int
    valid: bool = False
    #: Rename sequence position: the snapshot reflects the RAT after all
    #: instructions with seq < pos were renamed.
    pos: int = -1
    #: RHT write-pointer position at capture time (positive walks start here).
    rht_pos: int = -1
    rat_image: List[int] = field(default_factory=list)


class CheckpointTable:
    """Fixed set of checkpoint slots with injectable capture signal."""

    def __init__(
        self,
        num_slots: int,
        fabric: SignalFabric,
        observers: Sequence[RRSObserver],
    ) -> None:
        if num_slots < 1:
            raise ValueError("need at least one checkpoint slot")
        self._fabric = fabric
        self.bind(observers)
        self._slots = [CheckpointSlot(i) for i in range(num_slots)]
        # retire_anchor() runs every cycle from the commit stage but can
        # only change its answer after a slot mutation; memoize on a
        # monotonically bumped table version to make the idle case O(1).
        self._version = 0
        self._retire_memo: Optional[tuple] = None

    def bind(self, observers: Sequence[RRSObserver]) -> None:
        """(Re)build the slot-event dispatch lists from ``observers``."""
        self._on_content = listeners(observers, "checkpoint_content")
        self._on_meta = listeners(observers, "checkpoint_meta")
        self._on_freed = listeners(observers, "checkpoint_freed")

    def reset(self, initial_rat: Sequence[int]) -> None:
        """Power-on: slot 0 anchors the initial architectural state."""
        self._version += 1
        self._retire_memo = None
        for slot in self._slots:
            slot.valid = False
            slot.pos = -1
            slot.rht_pos = -1
            slot.rat_image = []
        slot0 = self._slots[0]
        slot0.valid = True
        slot0.pos = 0
        slot0.rht_pos = 0
        slot0.rat_image = list(initial_rat)

    # -- capture --------------------------------------------------------------

    def _find_free_slot(self) -> Optional[CheckpointSlot]:
        for slot in self._slots:
            if not slot.valid:
                return slot
        return None

    def take(
        self, pos: int, rht_pos: int, rat_image: Sequence[int], force: bool = False
    ) -> Optional[CheckpointSlot]:
        """Capture a checkpoint at rename position ``pos``.

        Args:
            pos: Rename sequence the snapshot corresponds to.
            rht_pos: RHT write-pointer position at capture time.
            rat_image: The live RAT contents (copied on capture).
            force: When True and no slot is free, recycle the oldest slot
                (used by the commit-point emergency checkpoint that keeps
                the RHT drainable; legal only when nothing is in flight).

        Returns:
            The slot used, or None when no slot was available (the
            checkpoint is skipped; recovery simply walks further).
        """
        slot = self._find_free_slot()
        self._version += 1
        if slot is None:
            if not force:
                return None
            slot = min(
                (s for s in self._slots if s.valid), key=lambda s: s.pos
            )
            for hook in self._on_freed:
                hook(slot.index)
        # Metadata always advances; the content capture is gated.
        slot.valid = True
        slot.pos = pos
        slot.rht_pos = rht_pos
        if self._fabric.asserted(ArrayName.CKPT, SignalKind.CHECKPOINT):
            slot.rat_image = list(rat_image)
            for hook in self._on_content:
                hook(slot.index, pos)
        for hook in self._on_meta:
            hook(slot.index, pos)
        return slot

    # -- selection / lifetime -------------------------------------------------------

    def select_for(self, offender_seq: int) -> Optional[CheckpointSlot]:
        """Closest previous checkpoint: youngest with pos <= offender+1."""
        best = None
        for slot in self._slots:
            if slot.valid and slot.pos <= offender_seq + 1:
                if best is None or slot.pos > best.pos:
                    best = slot
        return best

    def free_younger_than(self, pos: int) -> None:
        """Release slots captured past a squash point."""
        self._version += 1
        for slot in self._slots:
            if slot.valid and slot.pos > pos:
                slot.valid = False
                for hook in self._on_freed:
                    hook(slot.index)

    def retire_anchor(self, commit_seq: int) -> Optional[CheckpointSlot]:
        """Advance the anchor to the youngest slot at/below the commit point.

        Frees every older slot and returns the anchor (None only if the
        table is in a bug-corrupted state with no usable slot).
        """
        memo = self._retire_memo
        if (
            memo is not None
            and memo[0] == commit_seq
            and memo[1] == self._version
        ):
            # No slot changed since the last call with this commit point:
            # re-running the scan would free nothing and pick the same
            # anchor, so the memoized answer is exact.
            return memo[2]
        anchor = None
        for slot in self._slots:
            if slot.valid and slot.pos <= commit_seq:
                if anchor is None or slot.pos > anchor.pos:
                    anchor = slot
        if anchor is not None:
            for slot in self._slots:
                if slot.valid and slot.pos < anchor.pos:
                    slot.valid = False
                    self._version += 1
                    for hook in self._on_freed:
                        hook(slot.index)
        self._retire_memo = (commit_seq, self._version, anchor)
        return anchor

    def retire_settled(self, commit_seq: int, rht_head: int) -> bool:
        """True when the commit stage's per-cycle anchor maintenance —
        ``retire_anchor(commit_seq)`` followed by an RHT
        ``advance_head(anchor.rht_pos)`` — is provably a pure no-op: the
        memo covers this exact commit point at the current table version
        (so the scan would free nothing and return the same anchor), and
        that anchor would not move the RHT head past ``rht_head``. The
        core's quiescence predicate consults this before fast-forwarding;
        unlike :meth:`retire_anchor` it never mutates anything, so a
        ``False`` answer simply forces one more real step (which settles
        the memo) rather than changing behavior.
        """
        memo = self._retire_memo
        if memo is None or memo[0] != commit_seq or memo[1] != self._version:
            return False
        anchor = memo[2]
        return anchor is None or anchor.rht_pos <= rht_head

    # -- probes -------------------------------------------------------------------

    def valid_slots(self) -> List[CheckpointSlot]:
        return [slot for slot in self._slots if slot.valid]

    def __len__(self) -> int:
        return len(self._slots)

    # -- warm-start snapshot/restore -----------------------------------------

    def save_state(self) -> tuple:
        """Snapshot every slot (invalid slots keep their stale images, which
        a suppressed-capture bug can later restore from)."""
        return tuple(
            (s.valid, s.pos, s.rht_pos, tuple(s.rat_image))
            for s in self._slots
        )

    @staticmethod
    def split_identifiers(state: tuple) -> Tuple[tuple, List[int]]:
        """Split a :meth:`save_state` snapshot as
        :meth:`repro.core.uop.Uop.split_identifiers` does. Only a valid
        slot's image can be restored, so only those images count."""
        plain = []
        ids: List[int] = []
        for valid, pos, rht_pos, image in state:
            plain.append((valid, pos, rht_pos, len(image) if valid else 0))
            if valid:
                ids += image
        return tuple(plain), ids

    def load_state(self, state: tuple) -> None:
        """Restore a :meth:`save_state` snapshot."""
        self._version += 1
        self._retire_memo = None
        for slot, (valid, pos, rht_pos, rat_image) in zip(self._slots, state):
            slot.valid = valid
            slot.pos = pos
            slot.rht_pos = rht_pos
            slot.rat_image = list(rat_image)
