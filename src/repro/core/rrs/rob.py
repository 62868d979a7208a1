"""ReOrder Buffer: in-order commit FIFO with an evicted-PdstID field.

"Each ROB entry has a field to hold the PdstID that is evicted from the RAT
by the instruction (if the instruction writes to a register). The Pdst is
reclaimed (i.e., its PdstID returned in the FL) when the instruction
retires." (Section II)

Bug-injection fidelity notes:

* The evicted-PdstID *field* write at allocation is gated by the ROB write
  enable; a suppressed write leaves the slot's previous occupant's value in
  place (standard-cell memory keeps state), so the eventual commit reclaims
  a stale identifier -- leaking the true one and duplicating the stale one.
* The reclaim read pointer is physically separate from the architectural
  commit sequencing. A suppressed read enable leaves the read pointer in
  place **permanently** (the pointer missed one increment), so every later
  reclaim is shifted by one entry -- the "duplication the next time the
  array is read" behaviour of Section III.C, with long organic aftermath.
* Moving the write (tail) pointer back on a flush is gated by the ROB
  recovery signal.
"""

from __future__ import annotations

from typing import Callable, TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.core.errors import SimulatorAssertion
from repro.core.rrs.ports import RRSObserver, listeners
from repro.core.rrs.signals import ArrayName, SignalFabric, SignalKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core <- idld)
    from repro.idld.parity import ParityStore


class ROBSlot:
    """Physical storage of one ROB entry (reused as the ring wraps).

    A ``__slots__`` class: the ROB allocates ``capacity`` of these per core
    and touches them on every rename/commit, so attribute access cost and
    per-instance size matter.
    """

    __slots__ = ("seq", "has_dest", "evicted_pdst", "new_pdst", "uop")

    def __init__(
        self,
        seq: int = -1,
        has_dest: bool = False,
        evicted_pdst: int = 0,
        new_pdst: int = -1,
        uop: object = None,
    ) -> None:
        self.seq = seq
        self.has_dest = has_dest
        self.evicted_pdst = evicted_pdst
        self.new_pdst = new_pdst
        self.uop = uop


class ReorderBuffer:
    """Circular FIFO of :class:`ROBSlot` with injectable control signals."""

    def __init__(
        self,
        capacity: int,
        fabric: SignalFabric,
        observers: Sequence[RRSObserver],
        zero_pdst: int = None,
        parity: Optional["ParityStore"] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._fabric = fabric
        self.bind(observers)
        self._zero_pdst = zero_pdst
        self._parity = parity
        self._slots: List[ROBSlot] = [ROBSlot() for _ in range(capacity)]
        #: Logical (monotonic) positions; slot index = position % capacity.
        self._head = 0
        self._tail = 0
        #: Reclaim read pointer; equals ``_head`` unless a read-enable bug
        #: left it lagging.
        self._read_ptr = 0
        #: Output latch of the recovery-walk read port (ROB-walk recovery
        #: strategies); holds the last identifier the port delivered.
        self._walk_bus = 0

    def bind(self, observers: Sequence[RRSObserver]) -> None:
        """(Re)build the PdstID-field dispatch lists from ``observers``."""
        self._on_pdst_write = listeners(observers, "rob_pdst_write")
        self._on_pdst_read = listeners(observers, "rob_pdst_read")

    def reset(self) -> None:
        self._slots = [ROBSlot() for _ in range(self.capacity)]
        self._head = 0
        self._tail = 0
        self._read_ptr = 0
        self._walk_bus = 0
        if self._parity is not None:
            self._parity.reset()

    # -- occupancy ------------------------------------------------------------

    @property
    def count(self) -> int:
        return self._tail - self._head

    @property
    def full(self) -> bool:
        return self.count >= self.capacity

    @property
    def empty(self) -> bool:
        return self.count <= 0

    @property
    def head_slot(self) -> Optional[ROBSlot]:
        """The oldest live entry, or None when empty."""
        if self.empty:
            return None
        return self._slots[self._head % self.capacity]

    # -- allocation (rename) -----------------------------------------------------

    def allocate(
        self, seq: int, uop: object, has_dest: bool, evicted_pdst: int, new_pdst: int
    ) -> None:
        """Append one entry at the tail.

        The PdstID field write is gated by the write enable; instruction
        bookkeeping (seq/uop/has_dest) always lands -- the bug models of the
        paper concern the PdstID dataflow, not instruction sequencing.

        Raises:
            SimulatorAssertion: On allocation into a full ROB (rename must
                guard with :attr:`full`).
        """
        fabric = self._fabric
        tail = self._tail
        if tail - self._head >= self.capacity:
            raise SimulatorAssertion(fabric.cycle, "ROB overflow")
        slot = self._slots[tail % self.capacity]
        slot.seq = seq
        slot.uop = uop
        slot.has_dest = has_dest
        slot.new_pdst = new_pdst
        if has_dest:
            if not fabric.hot or fabric.asserted(
                ArrayName.ROB, SignalKind.WRITE_ENABLE
            ):
                slot.evicted_pdst = evicted_pdst
                if self._parity is not None:
                    self._parity.on_write(tail % self.capacity, evicted_pdst)
                if evicted_pdst != self._zero_pdst:
                    for hook in self._on_pdst_write:
                        hook(evicted_pdst, seq)
                # A shared-zero eviction is untracked by design (V.E).
            # else: the slot keeps its previous occupant's evicted_pdst.
        self._tail = tail + 1

    # -- commit -----------------------------------------------------------------

    def commit_read(self):
        """Retire the head entry and read the reclaim port.

        Returns ``(reclaim_has_dest, reclaim_pdst)``: what the reclaim data
        bus carries for this commit -- normally the head entry's own evicted
        field, but a lagging read pointer delivers an older slot's value.
        The read-enable consult happens once per commit; a suppressed enable
        freezes the read pointer (and emits no observer event), while the
        bus value still flows to the Free List.

        Raises:
            SimulatorAssertion: On commit from an empty ROB.
        """
        fabric = self._fabric
        if self._tail - self._head <= 0:
            raise SimulatorAssertion(fabric.cycle, "ROB underflow")
        read_slot = self._slots[self._read_ptr % self.capacity]
        reclaim_has_dest = read_slot.has_dest
        reclaim_pdst = read_slot.evicted_pdst
        if self._parity is not None and reclaim_has_dest:
            self._parity.on_read(
                self._read_ptr % self.capacity, reclaim_pdst, fabric.cycle
            )
        if reclaim_has_dest and reclaim_pdst == self._zero_pdst:
            # Shared-zero evictions never return to the FL and are
            # untracked by the code (Section V.E).
            self._read_ptr += 1
            self._head += 1
            return False, reclaim_pdst
        if reclaim_has_dest:
            # Only PdstID reclaims involve the read port; destination-less
            # entries retire without touching it.
            if not fabric.hot or fabric.asserted(
                ArrayName.ROB, SignalKind.READ_ENABLE
            ):
                self._read_ptr += 1
                reclaim_seq = read_slot.seq
                for hook in self._on_pdst_read:
                    hook(reclaim_pdst, reclaim_seq)
        else:
            self._read_ptr += 1
        self._head += 1
        return reclaim_has_dest, reclaim_pdst

    # -- flush recovery -------------------------------------------------------------

    def walk_read_pdst(self, pdst: int, seq: int) -> int:
        """One gated read of a squashed entry's PdstID field during a
        ROB-walk recovery flow.

        Data flows from the addressed field through the reclaim read port:
        an asserted read enable latches the value onto the walk bus and
        emits the observer event; a suppressed enable leaves the latch
        holding the *previously* delivered identifier, so the walk consumes
        a stale value -- and the missing XOR fold leaves the code nonzero
        at recovery end. Returns the bus value the walk must use.
        """
        fabric = self._fabric
        if not fabric.hot or fabric.asserted(
            ArrayName.ROB, SignalKind.READ_ENABLE
        ):
            self._walk_bus = pdst
            for hook in self._on_pdst_read:
                hook(pdst, seq)
        return self._walk_bus

    def squash_after(self, offender_seq: int) -> bool:
        """Move the write pointer back to ``offender_seq + 1`` (Table I).

        Gated by the ROB recovery signal; returns True when the squash
        actually happened. Squashed entries are *not* read out -- this is
        exactly why the ROBxor needs checkpoint-assisted recovery
        (Section V.C).
        """
        new_tail = offender_seq + 1
        if new_tail > self._tail:
            raise SimulatorAssertion(
                self._fabric.cycle,
                f"squash target {new_tail} beyond ROB tail {self._tail}",
            )
        if self._fabric.asserted(ArrayName.ROB, SignalKind.RECOVERY):
            self._tail = max(new_tail, self._head)
            return True
        return False

    # -- probes --------------------------------------------------------------------

    def corrupt_stored(self, live_index: int, xor_mask: int) -> int:
        """Fault injection: flip the evicted-PdstID field of the
        ``live_index``-th live entry (head-relative) without touching its
        parity bit. Returns the corrupted value."""
        if xor_mask == 0:
            raise ValueError("xor_mask must be nonzero")
        if not 0 <= live_index < self.count:
            raise ValueError(f"index {live_index} outside live window")
        slot = self._slots[(self._head + live_index) % self.capacity]
        slot.evicted_pdst ^= xor_mask
        return slot.evicted_pdst

    def live_evicted_ids(self) -> List[int]:
        """Evicted PdstIDs held by live dest-writing entries (probe only);
        shared-zero instances are outside the tracked token set."""
        ids = []
        for pos in range(self._head, self._tail):
            slot = self._slots[pos % self.capacity]
            if slot.has_dest and slot.evicted_pdst != self._zero_pdst:
                ids.append(slot.evicted_pdst)
        return ids

    def live_slots(self) -> List[ROBSlot]:
        """Live entries oldest-first (probe only)."""
        return [
            self._slots[pos % self.capacity]
            for pos in range(self._head, self._tail)
        ]

    @property
    def head_pos(self) -> int:
        return self._head

    @property
    def tail_pos(self) -> int:
        return self._tail

    @property
    def read_lag(self) -> int:
        """How far the reclaim pointer lags commit (nonzero only after bugs)."""
        return self._head - self._read_ptr

    # -- warm-start snapshot/restore -----------------------------------------

    def save_state(self, uop_ref: Callable[[object], int]) -> tuple:
        """Snapshot pointers plus the data fields of *every* slot.

        Stale slots (outside the live window) matter too: a lagging reclaim
        pointer reads them, and a suppressed field write leaves a previous
        occupant's identifier behind. Only live slots' ``uop`` references
        are recorded (via ``uop_ref``, the core's uop interning map); stale
        slots' uops are never dereferenced, so they restore as None.
        """
        head, tail = self._head, self._tail
        live = {pos % self.capacity for pos in range(head, tail)}
        slots = tuple(
            (
                slot.seq,
                slot.has_dest,
                slot.evicted_pdst,
                slot.new_pdst,
                uop_ref(slot.uop) if index in live else -1,
            )
            for index, slot in enumerate(self._slots)
        )
        return (head, tail, self._read_ptr, slots, self._walk_bus)

    @staticmethod
    def split_identifiers(state: tuple) -> Tuple[tuple, List[int]]:
        """Split a :meth:`save_state` snapshot as
        :meth:`repro.core.uop.Uop.split_identifiers` does. Live entries
        only: with the reclaim pointer at the head and no enable
        suppressed, no stale slot, walk-port latch or evicted field of a
        destination-less entry is read again."""
        head, tail, read_ptr, slots = state[:4]
        plain: list = [head, tail, read_ptr]
        ids: List[int] = []
        for pos in range(head, tail):
            seq, has_dest, evicted, new, ref = slots[pos % len(slots)]
            if has_dest:
                plain.append((seq, has_dest, ref))
                ids += (evicted, new)
            else:
                plain.append((seq, has_dest, ref, new))
        return tuple(plain), ids

    def load_state(self, state: tuple, uops: Sequence[object]) -> None:
        """Restore a :meth:`save_state` snapshot; ``uops`` resolves the
        interned uop references recorded at capture time."""
        head, tail, read_ptr, slots = state[:4]
        self._head = head
        self._tail = tail
        self._read_ptr = read_ptr
        self._walk_bus = state[4] if len(state) > 4 else 0
        for slot, (seq, has_dest, evicted_pdst, new_pdst, ref) in zip(
            self._slots, slots
        ):
            slot.seq = seq
            slot.has_dest = has_dest
            slot.evicted_pdst = evicted_pdst
            slot.new_pdst = new_pdst
            slot.uop = uops[ref] if ref >= 0 else None
