"""Pluggable flush-recovery strategies (``CoreConfig.recovery_strategy``).

The paper's core recovers from a mispredicted branch by restoring the RAT
from the closest previous checkpoint and walking the RHT (Section II); the
design-space study needs the same pipeline to also run *other* published
recovery microarchitectures so the detectors can be shown to generalize.
Each strategy owns the scheme-specific part of a flush: everything from
the ROB squash onward at flush initiation, the per-cycle recovery work,
and the packing of in-progress recovery state for warm-start snapshots.
The common prefix -- flush arbitration, squashing fetch/issue/execute and
the store queue, the ``flush_initiated``/``recovery_begin`` events -- stays
in :class:`~repro.core.cpu.OoOCore` and is identical for every strategy.

Strategies:

* ``checkpoint`` -- the paper's design, verbatim: checkpoint restore plus
  positive/negative RHT walks at ``recovery_walk_width`` entries/cycle.
* ``rob-walk`` -- no RAT restore: squashed ROB entries are read back
  youngest-first through the reclaim read port, each undoing its RAT
  write (from the evicted field) and returning its allocation (from the
  new-Pdst field) to the Free List.
* ``checkpoint-free`` -- recovery-at-drain: commit continues through the
  recovery window until all older work has retired, then the squashed
  entries unwind exactly as in ``rob-walk``. Uses no CKPT restore path.

Detector neutrality: with the IDLD checker's recovery compensation
(:mod:`repro.idld.checker`), every unwind step is XOR-balanced -- the two
walk-port reads, the RAT write and the FL push cancel exactly -- so a
bug-free recovery ends with a zero syndrome on every strategy, while any
suppressed enable inside the flow leaves a nonzero code at
``recovery_end``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Tuple

from repro.core.errors import SimulatorAssertion

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.cpu import OoOCore
    from repro.core.uop import Uop


@dataclass
class _Recovery:
    """In-progress checkpoint-walk recovery state (Section II / V.C)."""

    offender_seq: int
    redirect_pc: int
    pos_ptr: int
    pos_end: int  # exclusive
    neg_ptr: int
    neg_end: int  # exclusive lower bound (walk runs neg_ptr down to neg_end)
    new_rht_tail: int


@dataclass
class _WalkRecovery:
    """In-progress ROB-walk / checkpoint-free recovery state."""

    offender_seq: int
    redirect_pc: int
    new_rht_tail: int
    #: Squashed-entry undo log, youngest first: (seq, ldst, evicted, new).
    records: Tuple[Tuple[int, int, int, int], ...]
    idx: int
    #: checkpoint-free only: still committing older work before the unwind.
    draining: bool


class RecoveryStrategy:
    """Base class: one instance per core, stateless between recoveries
    (the in-progress state lives on ``core.recovery``)."""

    name = "?"

    def __init__(self, core: "OoOCore") -> None:
        self.core = core

    def begin(self, offender: "Uop", f_seq: int, rht_tail_at_flush: int) -> None:
        raise NotImplementedError

    def step(self) -> None:
        raise NotImplementedError

    def save_recovery(self):
        """Pack ``core.recovery`` as plain containers for save_state."""
        raise NotImplementedError

    def load_recovery(self, rec):
        """Unpack a :meth:`save_recovery` value (None stays None)."""
        raise NotImplementedError

    def split_identifiers(self, rec) -> Tuple[object, List[int]]:
        """Split a :meth:`save_recovery` value as
        :meth:`repro.core.uop.Uop.split_identifiers` does. A checkpoint
        walk holds RHT positions only, no identifier."""
        return rec, []

    def _finish(self, redirect_pc: int, new_rht_tail: int) -> None:
        core = self.core
        core.rht.restore_tail(new_rht_tail)
        core.fetch_pc = redirect_pc
        core.fetch_stalled = not (0 <= core.fetch_pc < len(core.program))
        core.allocs_since_checkpoint = 0
        core.recovery = None
        for hook in core._on_recovery_end:
            hook(core.cycle)


class CheckpointRecovery(RecoveryStrategy):
    """The paper's flow: RAT restore from the closest previous checkpoint,
    a positive RHT walk to replay renames up to the offender, and a
    negative RHT walk to return wrong-path PdstIDs to the FL."""

    name = "checkpoint"

    def begin(self, offender: "Uop", f_seq: int, rht_tail_at_flush: int) -> None:
        core = self.core
        core.rob.squash_after(f_seq)
        # Select and restore the closest previous checkpoint.
        ckpt = core.ckpt.select_for(f_seq)
        if ckpt is None:
            raise SimulatorAssertion(
                core.cycle, "no checkpoint available for recovery"
            )
        if core.rat.restore(ckpt.rat_image):
            for hook in core._on_checkpoint_restored:
                hook(ckpt.index)
        core.ckpt.free_younger_than(f_seq + 1)
        pos_start = ckpt.rht_pos
        pos_end = ckpt.rht_pos + (f_seq - ckpt.pos) + 1  # exclusive
        neg_end = pos_end  # exclusive lower bound for the negative walk
        core.recovery = _Recovery(
            offender_seq=f_seq,
            redirect_pc=offender.actual_target,
            pos_ptr=pos_start,
            pos_end=pos_end,
            neg_ptr=rht_tail_at_flush - 1,
            neg_end=neg_end,
            new_rht_tail=pos_end,
        )

    def step(self) -> None:
        core = self.core
        rec = core.recovery
        steps = core.config.recovery_walk_width
        rht = core.rht
        rat = core.rat
        entries = rht._entries
        rht_capacity = rht.capacity
        walk_advance = rht.walk_advance
        zero_pdst = core.zero_pdst
        pos_ptr = rec.pos_ptr
        pos_end = rec.pos_end
        while steps > 0 and pos_ptr < pos_end:
            entry = entries[pos_ptr % rht_capacity]
            if entry.has_dest:
                new_pdst = entry.new_pdst
                if new_pdst == zero_pdst and zero_pdst is not None:
                    rat.write_zero_idiom(entry.ldst)
                else:
                    rat.write(entry.ldst, new_pdst)
            if walk_advance():
                pos_ptr += 1
            steps -= 1
        rec.pos_ptr = pos_ptr
        neg_ptr = rec.neg_ptr
        neg_end = rec.neg_end
        if steps > 0 and neg_ptr >= neg_end:
            free_push = core.free_list.push
            while steps > 0 and neg_ptr >= neg_end:
                entry = entries[neg_ptr % rht_capacity]
                if entry.has_dest and entry.new_pdst != zero_pdst:
                    free_push(entry.new_pdst)
                if walk_advance():
                    neg_ptr -= 1
                steps -= 1
            rec.neg_ptr = neg_ptr
        if pos_ptr >= pos_end and neg_ptr < neg_end:
            self._finish(rec.redirect_pc, rec.new_rht_tail)

    def save_recovery(self):
        rec = self.core.recovery
        return None if rec is None else (
            rec.offender_seq, rec.redirect_pc, rec.pos_ptr, rec.pos_end,
            rec.neg_ptr, rec.neg_end, rec.new_rht_tail,
        )

    def load_recovery(self, rec):
        return None if rec is None else _Recovery(*rec)


class RobWalkRecovery(RecoveryStrategy):
    """Unwind squashed ROB entries youngest-first, no checkpoint restore.

    Each undo step reads the entry's evicted and allocated PdstID fields
    through the gated walk port, writes the evicted mapping back through
    the regular RAT write port and pushes the allocation back to the FL,
    at ``recovery_walk_width`` entries per cycle.
    """

    name = "rob-walk"
    #: checkpoint-free overrides: commit drains before the unwind starts.
    drain = False

    def begin(self, offender: "Uop", f_seq: int, rht_tail_at_flush: int) -> None:
        core = self.core
        rob_tail_before = core.rob.tail_pos
        records = []
        for slot in reversed(core.rob.live_slots()):  # youngest first
            if slot.seq <= f_seq:
                break
            if not slot.has_dest or slot.uop is None:
                continue
            records.append(
                (slot.seq, slot.uop.inst.rd, slot.evicted_pdst, slot.new_pdst)
            )
        core.rob.squash_after(f_seq)
        # Wrong-path checkpoints are released on every scheme: they anchor
        # RHT reclamation, and a stale one must never outlive its squash.
        core.ckpt.free_younger_than(f_seq + 1)
        # RHT/ROB lockstep (one log per allocation) locates the offender's
        # RHT position by pure pointer arithmetic -- no checkpoint needed.
        squashed = rob_tail_before - (f_seq + 1)
        core.recovery = _WalkRecovery(
            offender_seq=f_seq,
            redirect_pc=offender.actual_target,
            new_rht_tail=rht_tail_at_flush - squashed,
            records=tuple(records),
            idx=0,
            draining=self.drain,
        )

    def step(self) -> None:
        core = self.core
        rec = core.recovery
        if rec.draining:
            if not self._drain_step():
                return
            rec.draining = False
        steps = core.config.recovery_walk_width
        records = rec.records
        total = len(records)
        idx = rec.idx
        unwind = self._unwind_one
        while steps > 0 and idx < total:
            unwind(*records[idx])
            idx += 1
            steps -= 1
        rec.idx = idx
        if idx >= total:
            self._finish(rec.redirect_pc, rec.new_rht_tail)

    def _drain_step(self) -> bool:  # pragma: no cover - checkpoint-free only
        raise NotImplementedError

    def _unwind_one(self, seq: int, ldst: int, evicted: int, new_pdst: int) -> None:
        core = self.core
        zero = core.zero_pdst
        rob = core.rob
        # Read both PdstID fields through the gated walk port; a suppressed
        # enable substitutes the port latch's stale value downstream.
        if evicted != zero:
            evicted = rob.walk_read_pdst(evicted, seq)
        if new_pdst != zero:
            new_pdst = rob.walk_read_pdst(new_pdst, seq)
        # Undo the RAT write: the evicted mapping returns through the
        # regular write port (shared-zero evictions via the idiom port).
        if evicted == zero and zero is not None:
            core.rat.write_zero_idiom(ldst)
        else:
            core.rat.write(ldst, evicted)
        # Return the wrong-path allocation to the Free List.
        if new_pdst != zero:
            core.free_list.push(new_pdst)

    def save_recovery(self):
        rec = self.core.recovery
        return None if rec is None else (
            rec.offender_seq, rec.redirect_pc, rec.new_rht_tail,
            rec.records, rec.idx, rec.draining,
        )

    def split_identifiers(self, rec) -> Tuple[object, List[int]]:
        """Each undo record names its evicted and allocated PdstIDs."""
        if rec is None:
            return None, []
        offender_seq, redirect_pc, new_rht_tail, records, idx, draining = rec
        plain = (offender_seq, redirect_pc, new_rht_tail, idx, draining)
        return plain + tuple(r[:2] for r in records), [
            pdst for r in records for pdst in r[2:]
        ]

    def load_recovery(self, rec):
        if rec is None:
            return None
        offender_seq, redirect_pc, new_rht_tail, records, idx, draining = rec
        return _WalkRecovery(
            offender_seq=offender_seq,
            redirect_pc=redirect_pc,
            new_rht_tail=new_rht_tail,
            records=tuple(tuple(r) for r in records),
            idx=idx,
            draining=draining,
        )


class CheckpointFreeRecovery(RobWalkRecovery):
    """Recovery-at-drain: older work keeps committing through the recovery
    window; once the pipeline has drained to the flush point the squashed
    entries unwind as in ``rob-walk``. The CKPT restore path is never used
    -- checkpoints only serve as RHT-reclamation anchors."""

    name = "checkpoint-free"
    drain = True

    def _drain_step(self) -> bool:
        """Commit up to ``width`` older instructions; True once drained.

        The drain must stop at a resolved mispredict older than the
        current flush point: committing *it* would commit the wrong-path
        work behind it. The pending flush takes over as the next recovery
        the moment this one finishes.
        """
        core = self.core
        blocked = {id(u) for u in core.pending_flushes}
        core._commit_stage(blocked=blocked)
        if core.rob.empty:
            return True
        head = core.rob.head_slot
        return head is not None and id(head.uop) in blocked


_STRATEGIES = {
    CheckpointRecovery.name: CheckpointRecovery,
    RobWalkRecovery.name: RobWalkRecovery,
    CheckpointFreeRecovery.name: CheckpointFreeRecovery,
}


def make_recovery_strategy(name: str, core: "OoOCore") -> RecoveryStrategy:
    """Instantiate the strategy for a ``CoreConfig.recovery_strategy``."""
    try:
        cls = _STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown recovery strategy {name!r}; "
            f"choose one of {tuple(_STRATEGIES)}"
        ) from None
    return cls(core)
