"""IDLD for the Store-Sets MDP (Section V.F, Figure 7).

"IDLD uses two registers to track the XOR of the ID's that are inserted
and removed from the LFST table. The other important part is to identify
when to check for invariance violation: the two XORs should be equal but
they are not."

Three checking policies from the paper, strongest first:

* **counter-zero** -- "every time a counter, that is incremented on
  insertions and decremented on removals, becomes zero";
* **SQ-empty** -- "whenever the Store Queue of the core is empty";
* **checkpointed** -- "take a checkpoint of the insertion XOR when a
  specific SQ entry is allocated and compare... when that SQ entry
  commits", with a second removal XOR restricted to the checkpoint range
  to tolerate out-of-order removals.

The first two are the generic flow checker's two checks, so
:class:`MDPIDLDChecker` is a :class:`~repro.idld.flow.FlowInvariantChecker`
on the LFST ports: insertions are its source and removals its sink, each
cycle end is its counter-zero ``tick`` and an empty store queue its
``quiescent`` check, which also flags tokens still outstanding (two lost
removals of one inner ID cancel in the XORs, not in the count). The
checkpointed variant, :class:`CheckpointedMDPChecker`, ranges over insert
sequence numbers instead and is its own algorithm.

Inner IDs are extended with a constant-1 bit exactly as in the RRS checker
so ID 0 is visible to the code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.idld.codes import extend, extension_bit
from repro.idld.flow import FlowInvariantChecker
from repro.mdp.store_sets import MDPObserver


@dataclass
class MDPViolation:
    """One alarm of the checkpointed check (:class:`CheckpointedMDPChecker`);
    :class:`MDPIDLDChecker` raises :class:`~repro.idld.flow.FlowViolation`s."""

    cycle: int
    policy: str
    in_xor: int
    out_xor: int


class MDPIDLDChecker(FlowInvariantChecker, MDPObserver):
    """The flow checker on the LFST's insert and remove ports, checked at
    counter zero and whenever the store queue is empty."""

    def __init__(self, id_space: int = 64, enabled: bool = True) -> None:
        super().__init__(id_space, enabled)

    def lfst_insert(self, inner_id: int, seq: int) -> None:
        self.source(inner_id)

    def lfst_remove(self, inner_id: int, seq: int) -> None:
        self.sink(inner_id)

    def sq_empty(self, cycle: int) -> None:
        self.quiescent(cycle)

    def cycle_end(self, cycle: int) -> None:
        self.tick(cycle)


class CheckpointedMDPChecker(MDPObserver):
    """The checkpoint variant for pipelines whose SQ rarely drains.

    Section V.F: "take a checkpoint of the insertion XOR when a specific SQ
    entry is allocated and compare the checkpoint with the removal XOR when
    that SQ entry commits... compare with a second version of the removal
    XOR that is updated only from SQids that are between the current SQ
    tail and the SQ position where checkpoint is taken."

    Concretely this partitions the store sequence into *windows* closed
    every ``interval`` insertions. The window's insertion XOR is frozen at
    checkpoint time; removals route by insert-sequence into the open
    window or the future accumulator (out-of-order removals for younger
    stores). When the checkpointed store commits in order, every insertion
    of the window has been removed exactly once -- by its own address
    computation or an earlier displacement -- so the two XORs must match.
    """

    def __init__(self, id_space: int = 64, interval: int = 8, enabled: bool = True) -> None:
        self.enabled = enabled
        self.interval = interval
        self._ext_bit = extension_bit(id_space)
        self._pending_in = 0     # inserts since the last checkpoint
        self._window_in = 0      # frozen insertion XOR of the open window
        self._window_out = 0     # removals belonging to the open window
        self._future_out = 0     # removals for stores past the window end
        self._window_end: Optional[int] = None
        self._inserts_since_ckpt = 0
        self.violations: List[MDPViolation] = []

    @property
    def window_open(self) -> bool:
        return self._window_end is not None

    def lfst_insert(self, inner_id: int, seq: int) -> None:
        self._pending_in ^= extend(inner_id, self._ext_bit)
        self._inserts_since_ckpt += 1
        if not self.window_open and self._inserts_since_ckpt >= self.interval:
            # Checkpoint: freeze the window at this store.
            self._window_in = self._pending_in
            self._pending_in = 0
            self._window_out = self._future_out
            self._future_out = 0
            self._window_end = seq
            self._inserts_since_ckpt = 0

    def lfst_remove(self, inner_id: int, seq: int) -> None:
        code = extend(inner_id, self._ext_bit)
        if self.window_open and seq <= self._window_end:
            self._window_out ^= code
        else:
            self._future_out ^= code

    def commit_watermark(self, committed_seq: int, cycle: int) -> None:
        """In-order commit progress; checks when the window store commits."""
        if not self.window_open or committed_seq < self._window_end:
            return
        if self.enabled and self._window_in != self._window_out:
            self.violations.append(
                MDPViolation(cycle, "checkpoint", self._window_in, self._window_out)
            )
        self._window_end = None
        self._window_out = 0

    @property
    def detected(self) -> bool:
        return bool(self.violations)

    @property
    def first_detection_cycle(self) -> Optional[int]:
        return self.violations[0].cycle if self.violations else None
