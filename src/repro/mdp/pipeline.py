"""A compact store/load pipeline that drives the Store-Sets predictor.

This is the substrate for the Figure 7 use case: a stream of loads and
stores flows through map -> execute -> commit, with the predictor
serializing loads behind their predicted store. The model is deliberately
narrow -- it exists to exercise the LFST insertion/removal invariance and
the consequences of its violation (load hangs, stale dependencies), not to
re-model the whole OoO core.

Memory-order ground truth is tracked so that true violations (a load
executing before an older overlapping store) train the SSIT, making the
predictor's state evolve the way the original store-sets design intends.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.idld.flow import FlowSignalFabric
from repro.mdp.store_sets import MDPObserver, StoreSetsPredictor


@dataclass
class MemOp:
    """One memory operation of the driving stream.

    A *bubble* (``pc < 0``) models non-memory work between bursts: the map
    stage consumes it without creating an in-flight op, letting the store
    queue drain -- which is precisely when the SQ-empty IDLD check of
    Section V.F gets its opportunity.
    """

    is_store: bool
    pc: int
    address: int
    exec_latency: int  # cycles from map to address generation

    @property
    def is_bubble(self) -> bool:
        return self.pc < 0


@dataclass
class _InFlight:
    op: MemOp
    seq: int
    inner_id: int = -1          # SQ slot for stores
    lfst_slot: Optional[int] = None  # where the store inserted at map
    map_cycle: int = 0
    addr_ready_cycle: int = -1  # when the address generation completes
    executed: bool = False
    dep_inner_id: Optional[int] = None  # load: predicted store dependency
    violation: bool = False


@dataclass
class MDPRunResult:
    """Outcome of one pipeline run."""

    cycles: int
    completed: int
    hung: bool
    violations: int
    lfst_leftover: int  # LFST occupancy at the end (nonzero => leaked IDs)


def make_stream(
    num_ops: int,
    seed: int = 11,
    num_pcs: int = 24,
    num_addresses: int = 16,
    bubble_rate: float = 0.25,
) -> List[MemOp]:
    """A conflict-heavy, bursty op stream: few addresses and recurring PCs
    keep the store-sets predictor training and the LFST busy; bubble bursts
    let the store queue drain so the quiescent checks get opportunities."""
    rng = random.Random(seed)
    ops = []
    for _ in range(num_ops):
        if rng.random() < bubble_rate:
            # A burst of non-memory work.
            for _ in range(rng.randint(2, 10)):
                ops.append(MemOp(is_store=False, pc=-1, address=0, exec_latency=0))
            continue
        is_store = rng.random() < 0.45
        ops.append(
            MemOp(
                is_store=is_store,
                pc=rng.randrange(num_pcs),
                address=rng.randrange(num_addresses),
                exec_latency=rng.randint(1, 6),
            )
        )
    return ops


class MDPPipeline:
    """Cycle-driven map/execute/commit loop over a MemOp stream."""

    def __init__(
        self,
        stream: Sequence[MemOp],
        predictor: Optional[StoreSetsPredictor] = None,
        fabric: Optional[FlowSignalFabric] = None,
        observers: Sequence[MDPObserver] = (),
        map_width: int = 2,
        store_queue_entries: int = 16,
    ) -> None:
        self.stream = list(stream)
        self.fabric = fabric or FlowSignalFabric()
        self.observers = list(observers)
        self.predictor = predictor or StoreSetsPredictor(
            fabric=self.fabric, observers=self.observers
        )
        self.map_width = map_width
        self.store_queue_entries = store_queue_entries
        self.cycle = 0
        self.next_op = 0
        self.in_flight: List[_InFlight] = []
        self.sq_slots: Dict[int, _InFlight] = {}
        self.violations = 0
        self.completed = 0
        self._last_progress = 0

    # -- helpers -----------------------------------------------------------------

    def _free_sq_slot(self) -> Optional[int]:
        for slot in range(self.store_queue_entries):
            if slot not in self.sq_slots:
                return slot
        return None

    def _store_of_inner_id(self, inner_id: int) -> Optional[_InFlight]:
        return self.sq_slots.get(inner_id)

    # -- one cycle ------------------------------------------------------------------

    def step(self) -> None:
        self.cycle += 1
        self.fabric.cycle = self.cycle
        self._commit()
        self._execute()
        self._map()
        for obs in self.observers:
            if not self.sq_slots:
                obs.sq_empty(self.cycle)
            obs.cycle_end(self.cycle)

    def _map(self) -> None:
        for _ in range(self.map_width):
            if self.next_op >= len(self.stream):
                return
            op = self.stream[self.next_op]
            if op.is_bubble:
                self.next_op += 1
                self.completed += 1
                self._last_progress = self.cycle
                continue
            if op.is_store and self._free_sq_slot() is None:
                return  # SQ full: stall the map stage
            seq = self.next_op
            entry = _InFlight(op=op, seq=seq, map_cycle=self.cycle)
            if op.is_store:
                slot = self._free_sq_slot()
                entry.inner_id = slot
                self.sq_slots[slot] = entry
                entry.lfst_slot = self.predictor.store_mapped(op.pc, slot, seq)
                entry.addr_ready_cycle = self.cycle + op.exec_latency
            else:
                entry.dep_inner_id = self.predictor.load_mapped(op.pc)
            self.in_flight.append(entry)
            self.next_op += 1
            self._last_progress = self.cycle

    def _execute(self) -> None:
        for entry in self.in_flight:
            if entry.executed:
                continue
            if entry.op.is_store:
                if self.cycle >= entry.addr_ready_cycle:
                    entry.executed = True
                    self.predictor.store_address_computed(
                        entry.lfst_slot, entry.inner_id
                    )
                    self._last_progress = self.cycle
            else:
                self._try_execute_load(entry)

    def _try_execute_load(self, entry: _InFlight) -> None:
        dep = entry.dep_inner_id
        if dep is not None:
            store = self._store_of_inner_id(dep)
            if store is None:
                # Predicted dependency on a store that has left the
                # pipeline: the wake-up never comes (the paper's hang).
                return
            if not store.executed:
                return
        entry.executed = True
        self._last_progress = self.cycle
        # Ground truth: did an older overlapping store execute after us?
        for other in self.in_flight:
            if (
                other.op.is_store
                and other.seq < entry.seq
                and not other.executed
                and other.op.address == entry.op.address
            ):
                self.violations += 1
                entry.violation = True
                self.predictor.train(entry.op.pc, other.op.pc)
                break

    def _commit(self) -> None:
        while self.in_flight:
            head = self.in_flight[0]
            if not head.executed:
                return
            self.in_flight.pop(0)
            if head.op.is_store:
                del self.sq_slots[head.inner_id]
            self.completed += 1
            self._last_progress = self.cycle
            for obs in self.observers:
                obs.commit_watermark(head.seq, self.cycle)

    # -- run loop ----------------------------------------------------------------------

    def run(self, max_cycles: int = 100_000, hang_window: int = 2_000) -> MDPRunResult:
        """Drive the stream to completion or to a hang."""
        while self.completed < len(self.stream) and self.cycle < max_cycles:
            self.step()
            if self.cycle - self._last_progress > hang_window:
                break  # hung: a load waits on a departed store
        hung = self.completed < len(self.stream)
        return MDPRunResult(
            cycles=self.cycle,
            completed=self.completed,
            hung=hung,
            violations=self.violations,
            lfst_leftover=self.predictor.lfst_occupancy(),
        )
