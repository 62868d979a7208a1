"""Data memory and the store queue.

Stores write memory only at commit; loads execute speculatively, forwarding
from older in-flight stores when the address matches and conservatively
stalling when any older store address is still unknown (no memory
dependence speculation in the core -- the Store-Sets predictor of the
paper's Section V.F lives in its own substrate, :mod:`repro.mdp`).

Wrong-path or bug-corrupted addresses never raise at execute time; a
:class:`repro.core.errors.MemoryFault` fires only when a faulting access
*commits* (the paper's Crash class).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Set, Tuple

from repro.core.errors import MemoryFault, SimulatorAssertion
from repro.isa.instructions import WORD_MASK


@dataclass
class StoreQueueEntry:
    """One in-flight store."""

    seq: int
    address: Optional[int] = None
    value: Optional[int] = None

    @property
    def resolved(self) -> bool:
        return self.address is not None


#: A :meth:`DataMemory.save_state` page holds ``2**PAGE_BITS`` words.
PAGE_BITS = 6


class DataMemory:
    """Sparse word-addressed memory with a legality window.

    Snapshots are copy-on-write page tables: :meth:`save_state` maps each
    page number to the sorted ``(address, value)`` pairs it holds, and a
    page no committed store has written since the previous save is that
    save's own tuple. A golden run that snapshots every few hundred cycles
    therefore stores each unchanged page once, not once per snapshot, and
    two tables of one lineage compare page by page at identity speed.
    """

    def __init__(self, limit: int, initial: Optional[Dict[int, int]] = None) -> None:
        self.limit = limit
        self._words: Dict[int, int] = dict(initial or {})
        # The table the last save produced (or load accepted), and the
        # pages written since; a table is never mutated once handed out.
        self._pages: Dict[int, tuple] = {}
        self._dirty: Set[int] = {a >> PAGE_BITS for a in self._words}

    def read(self, address: int) -> int:
        """Speculative read; out-of-window reads return 0 (never raise)."""
        return self._words.get(address & WORD_MASK, 0)

    def committed_write(self, cycle: int, address: int, value: int) -> None:
        """Commit-time store; faults outside the legality window."""
        address &= WORD_MASK
        if address >= self.limit:
            raise MemoryFault(cycle, address)
        self._words[address] = value & WORD_MASK
        self._dirty.add(address >> PAGE_BITS)

    def check_committed_read(self, cycle: int, address: int) -> None:
        """Commit-time legality check for a load's address."""
        address &= WORD_MASK
        if address >= self.limit:
            raise MemoryFault(cycle, address)

    # -- warm-start snapshot/restore -----------------------------------------

    def save_state(self) -> Dict[int, tuple]:
        """Snapshot the committed words as a page table, sharing every
        page not written since the previous save with that save's table."""
        if self._dirty:
            words = self._words
            pages = dict(self._pages)
            for page in sorted(self._dirty):
                base = page << PAGE_BITS
                pages[page] = tuple(
                    (address, words[address])
                    for address in range(base, base + (1 << PAGE_BITS))
                    if address in words
                )
            self._pages = pages
            self._dirty = set()
        return self._pages

    def load_state(self, state: Dict[int, tuple]) -> None:
        """Restore a :meth:`save_state` page table."""
        self._words = dict(chain.from_iterable(state.values()))
        self._pages = state
        self._dirty = set()


class StoreQueue:
    """In-order queue of in-flight stores with forwarding search."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: List[StoreQueueEntry] = []
        # must-stall memo: load_seq -> address for which the ordering scan
        # last returned must_stall. Valid only while the queue is unchanged;
        # every mutation clears it. Replay-stalled loads re-run the scan
        # every cycle, so a livelocked (frozen) queue answers in O(1).
        self._stall_memo: Dict[int, int] = {}

    def reset(self) -> None:
        self._entries = []
        self._stall_memo = {}

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    def allocate(self, seq: int) -> StoreQueueEntry:
        if self.full:
            raise SimulatorAssertion(0, "store queue overflow")
        entry = StoreQueueEntry(seq)
        self._entries.append(entry)
        if self._stall_memo:
            self._stall_memo = {}
        return entry

    def resolve(self, seq: int, address: int, value: int) -> None:
        """Record a store's computed address and data."""
        for entry in self._entries:
            if entry.seq == seq:
                entry.address = address & WORD_MASK
                entry.value = value & WORD_MASK
                if self._stall_memo:
                    self._stall_memo = {}
                return

    def forward_for_load(
        self, load_seq: int, address: int
    ) -> Tuple[bool, Optional[int]]:
        """Search older stores for a forwardable value.

        Returns:
            ``(must_stall, value)``. ``must_stall`` is True when an older
            store's address is still unknown (conservative ordering).
            ``value`` is the newest older matching store's data, or None to
            read memory.
        """
        address &= WORD_MASK
        if self._stall_memo.get(load_seq) == address:
            return True, None
        value: Optional[int] = None
        for entry in self._entries:
            if entry.seq >= load_seq:
                continue
            if entry.address is None:
                self._stall_memo[load_seq] = address
                return True, None
            if entry.address == address:
                value = entry.value
        return False, value

    def release(self, seq: int) -> Optional[StoreQueueEntry]:
        """Free the entry of a committing store (oldest-first by design)."""
        for i, entry in enumerate(self._entries):
            if entry.seq == seq:
                if self._stall_memo:
                    self._stall_memo = {}
                return self._entries.pop(i)
        return None

    def squash_after(self, offender_seq: int) -> None:
        """Drop entries younger than the flush offender."""
        self._entries = [e for e in self._entries if e.seq <= offender_seq]
        if self._stall_memo:
            self._stall_memo = {}

    # -- warm-start snapshot/restore -----------------------------------------

    def save_state(self) -> tuple:
        """Snapshot the in-flight stores as plain tuples."""
        return tuple((e.seq, e.address, e.value) for e in self._entries)

    def load_state(self, state: tuple) -> None:
        """Restore a :meth:`save_state` snapshot."""
        self._entries = [
            StoreQueueEntry(seq, address, value)
            for seq, address, value in state
        ]
        self._stall_memo = {}
