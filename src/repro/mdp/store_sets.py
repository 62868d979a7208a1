"""Store-Sets memory dependence predictor (Chrysos & Emer, ISCA 1998).

The structure the paper's Figure 7 instruments:

* **SSIT** (Store Set ID Table): PC-indexed; maps loads and stores that
  have conflicted in the past to a common store-set identifier (SSID).
* **LFST** (Last Fetched Store Table): SSID-indexed; holds the *inner ID*
  ("unique identifier for each store currently in the pipeline") of the
  most recently mapped store of that set.

Flow (black circles = map stage, grey = execute, in Figure 7):

1. A store at map looks up SSIT[pc]; with a valid SSID it inserts its
   inner ID into LFST[ssid], *displacing* (= removing) any previous
   occupant.
2. A load at map looks up SSIT[pc] -> LFST[ssid] and, if an inner ID is
   present, must wait for that store.
3. When a store's address is computed at execute, its LFST entry is
   removed (if it is still the occupant).
4. A memory-order violation trains SSIT: the load and store PCs are
   assigned a common SSID.

The invariance IDLD exploits: **every LFST insertion is eventually
removed** (by address computation or displacement). "Otherwise, if the ID
is not removed, a load may cause execution to hang because it can have a
dependency on a store that has left the pipeline."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.mdp.signals import MDPSignal, MDPSignalFabric


class MDPObserver:
    """Observer over the LFST insert/remove ports (the Figure 7 taps).

    ``seq`` is the inserting store's sequence number; removals carry the
    sequence of the insert they undo, which is what the checkpointed
    checking variant of Section V.F ranges over.
    """

    def lfst_insert(self, inner_id: int, seq: int) -> None:
        """An inner ID entered the LFST."""

    def lfst_remove(self, inner_id: int, seq: int) -> None:
        """An inner ID left the LFST (address computed or displaced)."""

    def sq_empty(self, cycle: int) -> None:
        """The store queue is empty this cycle (checking opportunity)."""

    def commit_watermark(self, seq: int, cycle: int) -> None:
        """In-order commit progress (drives the checkpointed check)."""

    def cycle_end(self, cycle: int) -> None:
        """End-of-cycle synchronization point."""


@dataclass
class SSITEntry:
    valid: bool = False
    ssid: int = 0


@dataclass
class LFSTEntry:
    inner_id: int
    seq: int


class StoreSetsPredictor:
    """SSIT + LFST with injectable control signals."""

    def __init__(
        self,
        ssit_entries: int = 256,
        lfst_entries: int = 64,
        fabric: Optional[MDPSignalFabric] = None,
        observers: Sequence[MDPObserver] = (),
    ) -> None:
        self.ssit_entries = ssit_entries
        self.lfst_entries = lfst_entries
        self.fabric = fabric or MDPSignalFabric()
        self.observers = list(observers)
        self._ssit: List[SSITEntry] = [SSITEntry() for _ in range(ssit_entries)]
        self._lfst: List[Optional[LFSTEntry]] = [None] * lfst_entries
        self._next_ssid = 0

    def reset(self) -> None:
        self._ssit = [SSITEntry() for _ in range(self.ssit_entries)]
        self._lfst = [None] * self.lfst_entries
        self._next_ssid = 0

    # -- lookups --------------------------------------------------------------

    def _ssit_index(self, pc: int) -> int:
        return pc % self.ssit_entries

    def ssid_for(self, pc: int) -> Optional[int]:
        entry = self._ssit[self._ssit_index(pc)]
        return entry.ssid if entry.valid else None

    # -- map-stage flows (black circles in Figure 7) ----------------------------------

    def store_mapped(self, pc: int, inner_id: int, seq: int) -> Optional[int]:
        """A store reaches the map stage.

        Inserts the store's inner ID into its set's LFST entry, displacing
        (removing) the previous occupant. Returns the LFST slot used (the
        store carries it to execute so its removal targets the entry it
        inserted, even if training re-maps its PC meanwhile), or None when
        the store has no set yet.
        """
        ssid = self.ssid_for(pc)
        if ssid is None:
            return None
        slot = ssid % self.lfst_entries
        displaced = self._lfst[slot]
        if displaced is not None:
            if self.fabric.asserted(MDPSignal.LFST_REMOVE_DISPLACE):
                self._lfst[slot] = None
                for obs in self.observers:
                    obs.lfst_remove(displaced.inner_id, displaced.seq)
            # Displacement removal suppressed: the old ID stays accounted as
            # inserted although the table is about to drop it.
        if self.fabric.asserted(MDPSignal.LFST_INSERT):
            self._lfst[slot] = LFSTEntry(inner_id, seq)
            for obs in self.observers:
                obs.lfst_insert(inner_id, seq)
        return slot

    def load_mapped(self, pc: int) -> Optional[int]:
        """A load reaches the map stage; returns the inner ID of the store
        it is predicted to depend on, if any."""
        ssid = self.ssid_for(pc)
        if ssid is None:
            return None
        entry = self._lfst[ssid % self.lfst_entries]
        return entry.inner_id if entry is not None else None

    # -- execute-stage flow (grey circles in Figure 7) ----------------------------------

    def store_address_computed(self, slot: Optional[int], inner_id: int) -> None:
        """A store's address is known: the entry it inserted at map (whose
        slot it carried down the pipeline) is removed if it is still the
        occupant."""
        if slot is None:
            return
        entry = self._lfst[slot]
        if entry is not None and entry.inner_id == inner_id:
            if self.fabric.asserted(MDPSignal.LFST_REMOVE_EXEC):
                self._lfst[slot] = None
                for obs in self.observers:
                    obs.lfst_remove(entry.inner_id, entry.seq)
            # Suppressed: the entry lingers -- exactly the hang scenario the
            # paper motivates ("a dependency on a store that has left the
            # pipeline").

    # -- training -------------------------------------------------------------------------

    def train(self, load_pc: int, store_pc: int) -> None:
        """A memory-order violation assigns both PCs a common store set."""
        if not self.fabric.asserted(MDPSignal.SSIT_TRAIN):
            return
        load_entry = self._ssit[self._ssit_index(load_pc)]
        store_entry = self._ssit[self._ssit_index(store_pc)]
        if store_entry.valid:
            ssid = store_entry.ssid
        elif load_entry.valid:
            ssid = load_entry.ssid
        else:
            ssid = self._next_ssid
            self._next_ssid = (self._next_ssid + 1) % self.lfst_entries
        load_entry.valid = True
        load_entry.ssid = ssid
        store_entry.valid = True
        store_entry.ssid = ssid

    # -- probes -----------------------------------------------------------------------------

    def lfst_occupancy(self) -> int:
        return sum(1 for entry in self._lfst if entry is not None)
