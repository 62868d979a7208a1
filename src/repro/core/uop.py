"""Dynamic (in-flight) instruction state."""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple

from repro.isa.instructions import Instruction


class UopState(enum.Enum):
    """Lifecycle of a dynamic instruction."""

    FETCHED = "fetched"
    WAITING = "waiting"
    EXECUTING = "executing"
    DONE = "done"
    SQUASHED = "squashed"


class Uop:
    """One dynamic instance of a static instruction.

    A plain ``__slots__`` class (not a dataclass): one Uop is allocated per
    fetched instruction, making this the hottest allocation site in the
    simulator; slots cut both the per-instance memory and the attribute
    access cost on every pipeline stage.

    Attributes:
        seq: Global rename sequence number (allocation order).
        pc: Static instruction index.
        inst: The decoded instruction.
        predicted_taken / predicted_target: Front-end speculation recorded
            at fetch for branches.
        src_pdsts: Physical sources captured at rename from the (possibly
            bug-corrupted) RAT.
        pdst: Allocated physical destination, or None.
        evicted_pdst: Previous RAT mapping recorded into the ROB.
        state: Lifecycle state.
        result: Writeback value (for dest-writing uops) or OUT payload.
        mem_address: Effective address for loads/stores once computed.
        taken / actual_target: Branch resolution outcome.
        fault: Faulting address detected at execute, raised at commit.
        fetch_cycle / done_cycle: Timestamps for statistics.
    """

    __slots__ = (
        "seq",
        "pc",
        "inst",
        "predicted_taken",
        "predicted_target",
        "pred_state",
        "src_pdsts",
        "pdst",
        "evicted_pdst",
        "state",
        "result",
        "mem_address",
        "taken",
        "actual_target",
        "fault",
        "fetch_cycle",
        "done_cycle",
        "wait_pdst",
    )

    def __init__(
        self,
        seq: int,
        pc: int,
        inst: Instruction,
        predicted_taken: bool = False,
        predicted_target: int = 0,
        pred_state: int = 0,
        src_pdsts: Optional[List[int]] = None,
        pdst: Optional[int] = None,
        evicted_pdst: Optional[int] = None,
        state: UopState = UopState.FETCHED,
        result: int = 0,
        mem_address: Optional[int] = None,
        taken: bool = False,
        actual_target: int = 0,
        fault: Optional[int] = None,
        fetch_cycle: int = 0,
        done_cycle: int = 0,
    ) -> None:
        self.seq = seq
        self.pc = pc
        self.inst = inst
        self.predicted_taken = predicted_taken
        self.predicted_target = predicted_target
        self.pred_state = pred_state
        self.src_pdsts = [] if src_pdsts is None else src_pdsts
        self.pdst = pdst
        self.evicted_pdst = evicted_pdst
        self.state = state
        self.result = result
        self.mem_address = mem_address
        self.taken = taken
        self.actual_target = actual_target
        self.fault = fault
        self.fetch_cycle = fetch_cycle
        self.done_cycle = done_cycle
        # Issue-stage wakeup scoreboard: the first not-ready source this uop
        # stalled on, or None when it should attempt issue. Derived state —
        # deliberately absent from save_state(); a restored uop retries once
        # and re-blocks, which is behavior-identical (a source-blocked issue
        # attempt has no side effects).
        self.wait_pdst: Optional[int] = None

    @property
    def live(self) -> bool:
        return self.state is not UopState.SQUASHED

    # -- warm-start snapshot/restore -----------------------------------------

    def save_state(self) -> tuple:
        """All dynamic fields as a plain tuple (``inst`` is static and is
        re-derived from ``pc`` on load)."""
        return (
            self.seq,
            self.pc,
            self.predicted_taken,
            self.predicted_target,
            self.pred_state,
            tuple(self.src_pdsts),
            self.pdst,
            self.evicted_pdst,
            self.state,
            self.result,
            self.mem_address,
            self.taken,
            self.actual_target,
            self.fault,
            self.fetch_cycle,
            self.done_cycle,
        )

    @staticmethod
    def split_identifiers(data: tuple) -> Tuple[tuple, List[int]]:
        """Split a :meth:`save_state` tuple into its fields without an
        identifier and its PdstIDs (sources, then ``pdst`` and
        ``evicted_pdst`` where set). Two states agree up to a renaming of
        identifiers when the first parts are equal and one injective map
        sends the second onto each other (the convergence predicate,
        :func:`repro.bugs.differential.converged`)."""
        sources, pdst, evicted = data[5:8]
        absent = (len(sources), pdst is None, evicted is None)
        ids = [*sources, *(p for p in (pdst, evicted) if p is not None)]
        return data[:5] + data[8:] + absent, ids

    @classmethod
    def from_state(cls, data: tuple, inst: Instruction) -> "Uop":
        uop = cls(seq=data[0], pc=data[1], inst=inst)
        uop.predicted_taken = data[2]
        uop.predicted_target = data[3]
        uop.pred_state = data[4]
        uop.src_pdsts = list(data[5])
        uop.pdst = data[6]
        uop.evicted_pdst = data[7]
        uop.state = data[8]
        uop.result = data[9]
        uop.mem_address = data[10]
        uop.taken = data[11]
        uop.actual_target = data[12]
        uop.fault = data[13]
        uop.fetch_cycle = data[14]
        uop.done_cycle = data[15]
        return uop

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"Uop(seq={self.seq}, pc={self.pc}, state={self.state.value})"

    def __str__(self) -> str:  # pragma: no cover - diagnostics only
        return f"uop#{self.seq} pc={self.pc} {self.inst} [{self.state.value}]"
