"""Free List: pool of free physical register identifiers.

"FL is a first-in-first-out hardware structure, where PdstIDs are
initialized each time the processor core is powered on" (Section II).

The organization is a *policy axis* (``CoreConfig.free_list_discipline``):

* :class:`FifoFreeList` -- the paper's circular buffer whose head (read)
  and tail (write) pointers advance under control of the Table I
  read/write enables, so a suppressed enable produces exactly the hardware
  failure mode: a stale value re-delivered (duplication) or a dropped
  reclaim (leakage).
* :class:`StackFreeList` -- LIFO reuse through a single top-of-stack
  pointer (several real cores recycle the most recently freed Pdst
  first). The same enables gate the pointer, with the same failure modes.

Both expose one interface (``pop``/``push``/``count``/``contents``/
``corrupt_stored``/``save_state``), so the core, the detectors and the
fault injector are discipline-agnostic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

from repro.core.errors import SimulatorAssertion
from repro.core.rrs.ports import RRSObserver, listeners
from repro.core.rrs.signals import ArrayName, SignalFabric, SignalKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core <- idld)
    from repro.idld.parity import ParityStore


class FifoFreeList:
    """Circular FIFO of PdstIDs with bug-injectable control signals."""

    discipline = "fifo"

    def __init__(
        self,
        capacity: int,
        fabric: SignalFabric,
        observers: Sequence[RRSObserver],
        parity: Optional["ParityStore"] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._fabric = fabric
        self.bind(observers)
        self._parity = parity
        self._array: List[int] = [0] * capacity
        self._head = 0
        self._tail = 0
        self._count = 0

    def bind(self, observers: Sequence[RRSObserver]) -> None:
        """(Re)build the port dispatch lists from ``observers``."""
        self._on_read = listeners(observers, "fl_read")
        self._on_write = listeners(observers, "fl_write")

    def reset(self, initial_ids: Iterable[int]) -> None:
        """Power-on initialization with the initially-free PdstIDs."""
        ids = list(initial_ids)
        if len(ids) > self.capacity:
            raise ValueError("more initial ids than capacity")
        self._array = [0] * self.capacity
        if self._parity is not None:
            self._parity.reset()
        for i, pdst in enumerate(ids):
            self._array[i] = pdst
            if self._parity is not None:
                self._parity.on_write(i, pdst)
        self._head = 0
        self._tail = len(ids) % self.capacity
        self._count = len(ids)

    @property
    def count(self) -> int:
        """Number of free registers according to the FIFO pointers."""
        return self._count

    @property
    def empty(self) -> bool:
        return self._count == 0

    def peek(self) -> int:
        """Value currently driven on the read bus (head entry)."""
        return self._array[self._head]

    def pop(self) -> int:
        """Allocate one PdstID.

        Returns whatever the read bus carries. If the read enable was
        suppressed by a bug, the pointers do not advance (the same PdstID
        will be delivered again -- a duplication) and no observer event is
        emitted (the XOR update is gated by the same enable).

        Raises:
            SimulatorAssertion: On pop from an empty FIFO (rename must guard
                with :attr:`count`; reaching here means a bug corrupted the
                occupancy, which real hardware could not recover from).
        """
        fabric = self._fabric
        if self._count <= 0:
            raise SimulatorAssertion(
                fabric.cycle, "Free List underflow (pop from empty)"
            )
        head = self._head
        value = self._array[head]
        if self._parity is not None:
            self._parity.on_read(head, value, fabric.cycle)
        if not fabric.hot or fabric.asserted(
            ArrayName.FL, SignalKind.READ_ENABLE
        ):
            self._head = (head + 1) % self.capacity
            self._count -= 1
            for hook in self._on_read:
                hook(value)
        return value

    def push(self, pdst: int) -> None:
        """Reclaim one PdstID.

        If the write enable was suppressed by a bug, the value is dropped
        (leakage) and no observer event fires.

        Raises:
            SimulatorAssertion: On push to a full FIFO (reachable only after
                a duplication bug inflates the reclaim stream).
        """
        fabric = self._fabric
        if not fabric.hot or fabric.asserted(
            ArrayName.FL, SignalKind.WRITE_ENABLE
        ):
            if self._count >= self.capacity:
                raise SimulatorAssertion(
                    fabric.cycle, "Free List overflow (push to full)"
                )
            tail = self._tail
            self._array[tail] = pdst
            if self._parity is not None:
                self._parity.on_write(tail, pdst)
            self._tail = (tail + 1) % self.capacity
            self._count += 1
            for hook in self._on_write:
                hook(pdst)

    def corrupt_stored(self, offset: int, xor_mask: int) -> int:
        """Fault injection: flip bits of the ``offset``-th live entry
        (delivery order: 0 is the next pop) *without* updating any parity
        -- an at-rest upset.

        Returns the corrupted value.

        Raises:
            ValueError: If the offset is outside the live window or the
                mask is zero.
        """
        if xor_mask == 0:
            raise ValueError("xor_mask must be nonzero")
        if not 0 <= offset < self._count:
            raise ValueError(f"offset {offset} outside live window")
        index = (self._head + offset) % self.capacity
        self._array[index] ^= xor_mask
        return self._array[index]

    def contents(self) -> List[int]:
        """Snapshot of the live contents in delivery order (for probes)."""
        return [
            self._array[(self._head + i) % self.capacity]
            for i in range(self._count)
        ]

    # -- warm-start snapshot/restore -----------------------------------------

    def save_state(self) -> tuple:
        """Snapshot the full backing array and pointers (stale slots too:
        a suppressed read re-delivers whatever the storage holds)."""
        return (tuple(self._array), self._head, self._tail, self._count)

    @staticmethod
    def contents_of(state: tuple) -> List[int]:
        """The live contents, in delivery order, of a :meth:`save_state`
        snapshot."""
        array, head, _tail, count = state
        return [array[(head + i) % len(array)] for i in range(count)]

    def load_state(self, state: tuple) -> None:
        """Restore a :meth:`save_state` snapshot."""
        array, head, tail, count = state
        self._array = list(array)
        self._head = head
        self._tail = tail
        self._count = count


class StackFreeList:
    """LIFO stack of PdstIDs with bug-injectable control signals.

    One top-of-stack pointer replaces the FIFO's head/tail pair: ``pop``
    reads the entry below the top and the read enable gates the pointer
    decrement (a suppressed enable re-delivers the same identifier --
    duplication), ``push`` writes at the top gated by the write enable (a
    suppressed enable drops the reclaim -- leakage). Storage below the
    pointer is never cleared, so stale slots behave like standard-cell
    memory, exactly as in the FIFO.
    """

    discipline = "stack"

    def __init__(
        self,
        capacity: int,
        fabric: SignalFabric,
        observers: Sequence[RRSObserver],
        parity: Optional["ParityStore"] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._fabric = fabric
        self.bind(observers)
        self._parity = parity
        self._array: List[int] = [0] * capacity
        #: Live entry count; the read bus drives ``_array[_top - 1]``.
        self._top = 0

    def bind(self, observers: Sequence[RRSObserver]) -> None:
        """(Re)build the port dispatch lists from ``observers``."""
        self._on_read = listeners(observers, "fl_read")
        self._on_write = listeners(observers, "fl_write")

    def reset(self, initial_ids: Iterable[int]) -> None:
        """Power-on initialization with the initially-free PdstIDs.

        The ids fill the stack bottom-up, so the *last* initial id is the
        first allocated -- the LIFO twin of the FIFO's delivery order.
        """
        ids = list(initial_ids)
        if len(ids) > self.capacity:
            raise ValueError("more initial ids than capacity")
        self._array = [0] * self.capacity
        if self._parity is not None:
            self._parity.reset()
        for i, pdst in enumerate(ids):
            self._array[i] = pdst
            if self._parity is not None:
                self._parity.on_write(i, pdst)
        self._top = len(ids)

    @property
    def count(self) -> int:
        """Number of free registers according to the stack pointer."""
        return self._top

    @property
    def empty(self) -> bool:
        return self._top == 0

    def peek(self) -> int:
        """Value currently driven on the read bus (top entry)."""
        return self._array[self._top - 1]

    def pop(self) -> int:
        """Allocate one PdstID (see :meth:`FifoFreeList.pop`)."""
        if self._top <= 0:
            raise SimulatorAssertion(
                self._fabric.cycle, "Free List underflow (pop from empty)"
            )
        index = self._top - 1
        value = self._array[index]
        if self._parity is not None:
            self._parity.on_read(index, value, self._fabric.cycle)
        fabric = self._fabric
        if not fabric.hot or fabric.asserted(
            ArrayName.FL, SignalKind.READ_ENABLE
        ):
            self._top -= 1
            for hook in self._on_read:
                hook(value)
        return value

    def push(self, pdst: int) -> None:
        """Reclaim one PdstID (see :meth:`FifoFreeList.push`)."""
        fabric = self._fabric
        if not fabric.hot or fabric.asserted(
            ArrayName.FL, SignalKind.WRITE_ENABLE
        ):
            if self._top >= self.capacity:
                raise SimulatorAssertion(
                    self._fabric.cycle, "Free List overflow (push to full)"
                )
            self._array[self._top] = pdst
            if self._parity is not None:
                self._parity.on_write(self._top, pdst)
            self._top += 1
            for hook in self._on_write:
                hook(pdst)

    def corrupt_stored(self, offset: int, xor_mask: int) -> int:
        """Fault injection: flip bits of the ``offset``-th live entry
        (delivery order: 0 is the next pop, i.e. the top of stack)."""
        if xor_mask == 0:
            raise ValueError("xor_mask must be nonzero")
        if not 0 <= offset < self._top:
            raise ValueError(f"offset {offset} outside live window")
        index = self._top - 1 - offset
        self._array[index] ^= xor_mask
        return self._array[index]

    def contents(self) -> List[int]:
        """Snapshot of the live contents in delivery order (for probes)."""
        return [self._array[self._top - 1 - i] for i in range(self._top)]

    # -- warm-start snapshot/restore -----------------------------------------

    def save_state(self) -> tuple:
        """Snapshot the full backing array and the stack pointer."""
        return (tuple(self._array), self._top)

    @staticmethod
    def contents_of(state: tuple) -> List[int]:
        """The live contents, in delivery order, of a :meth:`save_state`
        snapshot."""
        array, top = state
        return [array[top - 1 - i] for i in range(top)]

    def load_state(self, state: tuple) -> None:
        """Restore a :meth:`save_state` snapshot."""
        array, top = state
        self._array = list(array)
        self._top = top


_DISCIPLINES = {
    FifoFreeList.discipline: FifoFreeList,
    StackFreeList.discipline: StackFreeList,
}


def make_free_list(
    discipline: str,
    capacity: int,
    fabric: SignalFabric,
    observers: Sequence[RRSObserver],
    parity: Optional["ParityStore"] = None,
):
    """Instantiate the free list for a ``CoreConfig.free_list_discipline``."""
    try:
        cls = _DISCIPLINES[discipline]
    except KeyError:
        raise ValueError(
            f"unknown free list discipline {discipline!r}; "
            f"choose one of {tuple(_DISCIPLINES)}"
        ) from None
    return cls(capacity, fabric, observers, parity=parity)
