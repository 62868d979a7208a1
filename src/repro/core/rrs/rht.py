"""Register History Table: the per-instruction RAT-change log.

"RHT is a FIFO hardware structure used to log the RAT changes per
instruction, i.e., the logical destination register (if any) for an
instruction and its allocated PdstID." (Section II)

Every renamed instruction writes one entry (destination-less instructions
write an invalid entry) so that flush recovery can locate any instruction
by pure pointer arithmetic from a checkpointed position: a *positive walk*
replays entries between the restored checkpoint and the offending
instruction into the RAT, and a *negative walk* returns the PdstIDs
allocated after the offending instruction to the Free List (Section II).

The walk read pointers are gated per step by the RHT read enable (the
paper's footnote: "RHT uses two read pointers to perform a positive and
negative walk during recovery"); a suppressed step repeats an entry. The
write port (array + write pointer) is gated by the write enable, and the
tail restore on flushes by the RHT recovery signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.errors import SimulatorAssertion
from repro.core.rrs.ports import RRSObserver
from repro.core.rrs.signals import ArrayName, SignalFabric, SignalKind


@dataclass
class RHTEntry:
    """Physical storage of one RHT entry (reused as the ring wraps)."""

    has_dest: bool = False
    ldst: int = 0
    new_pdst: int = 0


class RegisterHistoryTable:
    """Circular FIFO log with injectable control signals."""

    def __init__(
        self,
        capacity: int,
        fabric: SignalFabric,
        observers: Sequence[RRSObserver],
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._fabric = fabric
        self._observers = observers
        self._entries: List[RHTEntry] = [RHTEntry() for _ in range(capacity)]
        #: Logical monotonic positions; slot index = position % capacity.
        self._head = 0
        self._tail = 0

    def reset(self) -> None:
        self._entries = [RHTEntry() for _ in range(self.capacity)]
        self._head = 0
        self._tail = 0

    # -- occupancy ---------------------------------------------------------------

    @property
    def occupancy(self) -> int:
        return self._tail - self._head

    @property
    def full(self) -> bool:
        return self.occupancy >= self.capacity

    @property
    def tail_pos(self) -> int:
        return self._tail

    @property
    def head_pos(self) -> int:
        return self._head

    # -- write (rename) -------------------------------------------------------------

    def log(self, has_dest: bool, ldst: int, new_pdst: int) -> None:
        """Append one entry for a renamed instruction.

        Gated by the RHT write enable: a suppressed write leaves the slot's
        stale contents in place *and* freezes the write pointer, so all
        later entries shift by one relative to the sequence numbering the
        recovery walks assume.

        Raises:
            SimulatorAssertion: On append to a full RHT (rename must guard).
        """
        fabric = self._fabric
        tail = self._tail
        if tail - self._head >= self.capacity:
            raise SimulatorAssertion(fabric.cycle, "RHT overflow")
        if not fabric.hot or fabric.asserted(
            ArrayName.RHT, SignalKind.WRITE_ENABLE
        ):
            entry = self._entries[tail % self.capacity]
            entry.has_dest = has_dest
            entry.ldst = ldst
            entry.new_pdst = new_pdst
            self._tail = tail + 1

    # -- walk reads -----------------------------------------------------------------

    def read_slot(self, pos: int) -> RHTEntry:
        """Raw slot access at a logical position (walks do the gating)."""
        return self._entries[pos % self.capacity]

    def walk_advance(self) -> bool:
        """Consult the walk read-pointer enable for one step.

        Returns True when the pointer may advance; a False (suppressed)
        consult means this walk step will be repeated.
        """
        fabric = self._fabric
        return not fabric.hot or fabric.asserted(
            ArrayName.RHT, SignalKind.READ_ENABLE
        )

    # -- recovery / retirement ---------------------------------------------------------

    def restore_tail(self, new_tail: int) -> bool:
        """Move the write pointer back on a flush (Table I recovery action).

        Gated by the RHT recovery signal; returns True when it happened.
        """
        if self._fabric.asserted(ArrayName.RHT, SignalKind.RECOVERY):
            if new_tail < self._head:
                raise SimulatorAssertion(
                    self._fabric.cycle,
                    f"RHT tail restore {new_tail} below head {self._head}",
                )
            self._tail = new_tail
            return True
        return False

    def advance_head(self, new_head: int) -> None:
        """Free entries older than ``new_head`` (anchor checkpoint retired).

        Not a Table I control signal: head advancement is the reclamation
        side of the log and is driven by checkpoint retirement.
        """
        if new_head > self._head:
            self._head = min(new_head, self._tail)

    # -- warm-start snapshot/restore -----------------------------------------

    def save_state(self) -> tuple:
        """Snapshot every entry (stale slots included: a tail restore after
        a suppressed write replays whatever the storage holds) + pointers."""
        return (
            tuple((e.has_dest, e.ldst, e.new_pdst) for e in self._entries),
            self._head,
            self._tail,
        )

    @staticmethod
    def split_identifiers(state: tuple) -> Tuple[tuple, List[int]]:
        """Split a :meth:`save_state` snapshot as
        :meth:`repro.core.uop.Uop.split_identifiers` does. The live window
        only: with no enable suppressed, the walks read nothing else."""
        entries, head, tail = state
        plain: list = [head, tail]
        ids: List[int] = []
        for pos in range(head, tail):
            has_dest, ldst, new = entries[pos % len(entries)]
            if has_dest:
                plain.append((has_dest, ldst))
                ids.append(new)
            else:
                plain.append((has_dest, ldst, new))
        return tuple(plain), ids

    def load_state(self, state: tuple) -> None:
        """Restore a :meth:`save_state` snapshot."""
        entries, head, tail = state
        for entry, (has_dest, ldst, new_pdst) in zip(self._entries, entries):
            entry.has_dest = has_dest
            entry.ldst = ldst
            entry.new_pdst = new_pdst
        self._head = head
        self._tail = tail
