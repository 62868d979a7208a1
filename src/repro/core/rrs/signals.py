"""RRS control signals and the injectable signal fabric.

Table I of the paper enumerates the control signals generated by the RRS
control logic ("the clouds in Figure 1"). This module exposes that signal
matrix as a first-class object: every array consults the
:class:`SignalFabric` each time it would assert one of its control signals,
and a bug injector can arm a one-shot momentary de-assertion
(*Control Signal Corruption* bug model) or a one-shot PdstID value
corruption on the RAT write port (*PdstID Corruption* bug model).

Crucially, the IDLD XOR bookkeeping in hardware is gated by the very same
enables, so the arrays only notify their port observers for actions that
*actually happened*; downstream logic still consumes whatever the (stale)
data bus carries. This asymmetry is what makes leakage/duplication visible
to the XOR invariant.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple


class ArrayName(enum.Enum):
    """The five RRS hardware arrays of Figure 1."""

    FL = "FL"
    ROB = "ROB"
    RHT = "RHT"
    RAT = "RAT"
    CKPT = "CKPT"


class SignalKind(enum.Enum):
    """Control signal families of Table I (plus optimization signals)."""

    READ_ENABLE = "read_enable"
    WRITE_ENABLE = "write_enable"
    RECOVERY = "recovery"
    CHECKPOINT = "checkpoint"
    #: Section V.E: "a control signal will be communicated to the RAT when
    #: a second instance of a PdstID is created... This signal can be used
    #: to inform IDLD to not take into consideration at that time the
    #: corresponding duplicated PdstID."
    DUP_MARK = "dup_mark"


#: The (array, signal) pairs that exist, straight from Table I.
TABLE_I: Dict[Tuple[ArrayName, SignalKind], str] = {
    (ArrayName.FL, SignalKind.READ_ENABLE): "Advance read pointer",
    (ArrayName.FL, SignalKind.WRITE_ENABLE): "Update array / update write pointer",
    (ArrayName.ROB, SignalKind.READ_ENABLE): "Advance read pointer",
    (ArrayName.ROB, SignalKind.WRITE_ENABLE): "Update array / update write pointer",
    (ArrayName.ROB, SignalKind.RECOVERY): "Move write pointer to offending entry+1",
    (ArrayName.RHT, SignalKind.READ_ENABLE): "Advance read pointer (positive/negative walk)",
    (ArrayName.RHT, SignalKind.WRITE_ENABLE): "Update array / update write pointer",
    (ArrayName.RHT, SignalKind.RECOVERY): "Move write pointer to offending entry+1",
    (ArrayName.RAT, SignalKind.WRITE_ENABLE): "Update array",
    (ArrayName.RAT, SignalKind.RECOVERY): "Checkpoint to RAT",
    (ArrayName.CKPT, SignalKind.CHECKPOINT): "RAT to Checkpoint",
}

#: Optimization-related signals outside the paper's Table I (Section V.E's
#: duplicate-marking signal for zero-idiom/move elimination).
OPTIMIZATION_SIGNALS: Dict[Tuple[ArrayName, SignalKind], str] = {
    (ArrayName.RAT, SignalKind.DUP_MARK): "Mark shared-identifier write",
}

#: Signals whose momentary de-assertion primarily duplicates a PdstID
#: (a FIFO read pointer erroneously not advanced, Section III.C).
DUPLICATION_SIGNALS: Tuple[Tuple[ArrayName, SignalKind], ...] = (
    (ArrayName.FL, SignalKind.READ_ENABLE),
    (ArrayName.ROB, SignalKind.READ_ENABLE),
)

#: Signals whose momentary de-assertion primarily leaks a PdstID (a write
#: enable erroneously not asserted, Section III.C).
LEAKAGE_SIGNALS: Tuple[Tuple[ArrayName, SignalKind], ...] = (
    (ArrayName.FL, SignalKind.WRITE_ENABLE),
    (ArrayName.ROB, SignalKind.WRITE_ENABLE),
    (ArrayName.RAT, SignalKind.WRITE_ENABLE),
)

#: Multi-cycle-flow signals: suppression causes multiple simultaneous
#: duplications/leakages (Section III.C, recovery/checkpoint paragraph).
#: These form the *extended* bug model exercised by the ablation bench.
EXTENDED_SIGNALS: Tuple[Tuple[ArrayName, SignalKind], ...] = (
    (ArrayName.RHT, SignalKind.READ_ENABLE),
    (ArrayName.RHT, SignalKind.WRITE_ENABLE),
    (ArrayName.RAT, SignalKind.RECOVERY),
    (ArrayName.ROB, SignalKind.RECOVERY),
    (ArrayName.RHT, SignalKind.RECOVERY),
    (ArrayName.CKPT, SignalKind.CHECKPOINT),
)


@dataclass
class ArmedSuppression:
    """A one-shot momentary de-assertion of one control signal.

    The suppression fires the first time the signal is exercised at or after
    ``from_cycle`` (a de-assertion of a signal nobody consults that cycle has
    no microarchitectural effect; firing on first use makes every injection
    an actual PdstID-flow perturbation -- see EXPERIMENTS.md).
    """

    array: ArrayName
    kind: SignalKind
    from_cycle: int
    fired: bool = False
    fired_cycle: Optional[int] = None


@dataclass
class ArmedCorruption:
    """A one-shot PdstID corruption on the RAT write port.

    ``xor_mask`` must be nonzero and within the PdstID encoding width, so
    the corrupted value is a different value of that width. It names a
    physical register only when the register count is a power of two;
    otherwise it may be P or more. Such a write still lands and reaches
    every tap, and the core raises
    :class:`~repro.core.errors.SimulatorAssertion` (the *Assert* outcome)
    at the end of that cycle, or at the end of the recovery flow that made
    the write (see :attr:`SignalFabric.undefined_pdst`).
    """

    from_cycle: int
    xor_mask: int
    fired: bool = False
    fired_cycle: Optional[int] = None
    original: Optional[int] = None
    corrupted: Optional[int] = None


class SignalFabric:
    """Run-time control-signal consultation point with bug injection.

    The core sets :attr:`cycle` once per simulated cycle; arrays call
    :meth:`asserted` for each control-signal use and :meth:`corrupt_pdst`
    on the RAT write data path.
    """

    def __init__(self) -> None:
        self.cycle = 0
        self._suppressions: List[ArmedSuppression] = []
        self._corruptions: List[ArmedCorruption] = []
        # Not-yet-fired subsets, kept separately so the per-consult hot path
        # is a single truthiness test when nothing is armed (the golden runs
        # and every post-activation cycle of an injection run).
        self._live_suppressions: List[ArmedSuppression] = []
        self._live_corruptions: List[ArmedCorruption] = []
        #: Consultation fast flag: while False, ``asserted`` is guaranteed
        #: to return True and ``corrupt_pdst`` to return its input, so the
        #: hottest port sites may skip the calls entirely after one
        #: attribute read. Maintained by :meth:`_refresh_hot` at every
        #: arm/fire/load transition.
        self.hot = False
        #: An identifier the RAT write port drove that names no physical
        #: register, or None. The core raises SimulatorAssertion at the end
        #: of the cycle that sets it, after the cycle-end hooks, or, for a
        #: write inside a recovery flow, when that flow ends, after the
        #: recovery_end hooks. A golden run never sets it, so no snapshot
        #: holds it.
        self.undefined_pdst: Optional[int] = None

    def _refresh_hot(self) -> None:
        self.hot = bool(self._live_suppressions or self._live_corruptions)

    # -- injection API -------------------------------------------------------

    def arm_suppression(
        self, array: ArrayName, kind: SignalKind, from_cycle: int
    ) -> ArmedSuppression:
        """Arm a one-shot de-assertion of ``(array, kind)``.

        Raises:
            ValueError: If the (array, kind) pair does not exist in Table I.
        """
        if (array, kind) not in TABLE_I and (array, kind) not in OPTIMIZATION_SIGNALS:
            raise ValueError(f"no such control signal: {array.value}.{kind.value}")
        armed = ArmedSuppression(array, kind, from_cycle)
        self._suppressions.append(armed)
        self._live_suppressions.append(armed)
        self._refresh_hot()
        return armed

    def arm_corruption(self, from_cycle: int, xor_mask: int) -> ArmedCorruption:
        """Arm a one-shot PdstID corruption on the RAT write port.

        Raises:
            ValueError: If ``xor_mask`` is zero (corruption must change the
                value).
        """
        if xor_mask == 0:
            raise ValueError("xor_mask must be nonzero")
        armed = ArmedCorruption(from_cycle, xor_mask)
        self._corruptions.append(armed)
        self._live_corruptions.append(armed)
        self._refresh_hot()
        return armed

    # -- consultation API ------------------------------------------------------

    def asserted(self, array: ArrayName, kind: SignalKind) -> bool:
        """Consult a control signal; fires at most one armed suppression."""
        live = self._live_suppressions
        if not live:
            return True
        for armed in live:
            if (
                armed.array is array
                and armed.kind is kind
                and self.cycle >= armed.from_cycle
            ):
                armed.fired = True
                armed.fired_cycle = self.cycle
                live.remove(armed)
                self._refresh_hot()
                return False
        return True

    def corrupt_pdst(self, value: int) -> int:
        """Pass a PdstID through the RAT write data path; may corrupt it."""
        live = self._live_corruptions
        if not live:
            return value
        for armed in live:
            if self.cycle >= armed.from_cycle:
                armed.fired = True
                armed.fired_cycle = self.cycle
                armed.original = value
                armed.corrupted = value ^ armed.xor_mask
                live.remove(armed)
                self._refresh_hot()
                return armed.corrupted
        return value

    # -- introspection -----------------------------------------------------------

    @property
    def any_armed(self) -> bool:
        """True while at least one injection has not fired yet."""
        return bool(self._live_suppressions or self._live_corruptions)

    @property
    def activations(self) -> List[int]:
        """Cycles at which injections actually fired (activation cycles)."""
        cycles = [s.fired_cycle for s in self._suppressions if s.fired]
        cycles += [c.fired_cycle for c in self._corruptions if c.fired]
        return sorted(c for c in cycles if c is not None)

    def describe(self) -> List[str]:
        """Human-readable summary of armed/fired injections."""
        lines = []
        for s in self._suppressions:
            state = f"fired@{s.fired_cycle}" if s.fired else f"armed@{s.from_cycle}"
            lines.append(f"suppress {s.array.value}.{s.kind.value} [{state}]")
        for c in self._corruptions:
            state = (
                f"fired@{c.fired_cycle} {c.original}->{c.corrupted}"
                if c.fired
                else f"armed@{c.from_cycle}"
            )
            lines.append(f"corrupt RAT-write PdstID mask={c.xor_mask:#x} [{state}]")
        return lines
