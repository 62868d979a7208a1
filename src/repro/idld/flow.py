"""Generic IDLD flow-invariance checker (Section V.F, last paragraph).

"The IDLD approach is applicable to any system where there is incoming and
outgoing information flow from read and write ports, and it is a system
invariance that the overall outgoing and incoming info should match. This
has applicability in many situations (bus communication, exchanges between
NoC links, FIFOs etc.)."

:class:`FlowInvariantChecker` packages the recipe's four requirements as a
reusable component: fold every token leaving the source into one XOR
register and every token reaching the sink into another, count outstanding
tokens, and compare the two codes at explicit quiescent points and/or
whenever the outstanding counter returns to zero. The RRS and MDP checkers
are hand-specialized instances of the same idea; this class is the one
downstream users attach to their own channels.

:class:`FlowSignalFabric` is the bug-injection side of such a flow: the
MDP tables and the NoC link consult it for each of their control signals
(:class:`repro.mdp.signals.MDPSignal`, :class:`repro.noc.signals.NocSignal`),
and an armed suppression silently de-asserts one of them once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.idld.codes import extend, extension_bit


@dataclass
class FlowViolation:
    """One detected source/sink mismatch."""

    cycle: int
    policy: str  # "counter_zero" or "quiescent"
    source_xor: int
    sink_xor: int
    outstanding: int


class FlowInvariantChecker:
    """Two XOR registers plus an outstanding-token counter.

    Args:
        id_space: Number of distinct token identifiers; sizes the
            extension bit so token 0 is visible to the code.
        check_on_counter_zero: Evaluate whenever the outstanding counter
            returns to zero at a tick (the cheapest frequent check).
        enabled: The chicken bit.

    Usage::

        guard = FlowInvariantChecker(id_space=64)
        guard.source(flit_id)     # token left the producer
        ...
        guard.sink(flit_id)       # token consumed at the far end
        guard.tick(cycle)         # once per cycle
        guard.quiescent(cycle)    # at known-empty points
    """

    def __init__(
        self,
        id_space: int,
        check_on_counter_zero: bool = True,
        enabled: bool = True,
    ) -> None:
        if id_space < 1:
            raise ValueError("id_space must be positive")
        self.enabled = enabled
        self.check_on_counter_zero = check_on_counter_zero
        self._ext_bit = extension_bit(id_space)
        self.source_xor = 0
        self.sink_xor = 0
        self.outstanding = 0
        self.violations: List[FlowViolation] = []

    # -- taps -------------------------------------------------------------------

    def source(self, token_id: int) -> None:
        """A token left the producer side."""
        self.source_xor ^= extend(token_id, self._ext_bit)
        self.outstanding += 1

    def sink(self, token_id: int) -> None:
        """A token arrived/was consumed at the sink side."""
        self.sink_xor ^= extend(token_id, self._ext_bit)
        self.outstanding -= 1

    # -- checks ------------------------------------------------------------------

    @property
    def syndrome(self) -> int:
        return self.source_xor ^ self.sink_xor

    def _check(self, cycle: int, policy: str) -> None:
        if self.enabled and self.syndrome != 0:
            self.violations.append(
                FlowViolation(
                    cycle, policy, self.source_xor, self.sink_xor,
                    self.outstanding,
                )
            )

    def tick(self, cycle: int) -> None:
        """Per-cycle hook: checks when no tokens are outstanding."""
        if self.check_on_counter_zero and self.outstanding == 0:
            self._check(cycle, "counter_zero")

    def quiescent(self, cycle: int) -> None:
        """Explicit known-empty checking opportunity.

        At a quiescent point *both* codes must match *and* no tokens may be
        outstanding: the counter catches even-multiplicity losses that the
        XOR projection cancels (two leaked tokens with the same id).
        """
        if self.enabled and self.outstanding != 0 and self.syndrome == 0:
            self.violations.append(
                FlowViolation(
                    cycle, "quiescent", self.source_xor, self.sink_xor,
                    self.outstanding,
                )
            )
            return
        self._check(cycle, "quiescent")

    # -- results --------------------------------------------------------------------

    @property
    def detected(self) -> bool:
        return bool(self.violations)

    @property
    def first_detection_cycle(self) -> Optional[int]:
        return self.violations[0].cycle if self.violations else None


# -- bug injection ----------------------------------------------------------------


@dataclass
class ArmedFlowSuppression:
    """One-shot de-assertion of one control signal."""

    signal: enum.Enum
    from_cycle: int
    fired: bool = False
    fired_cycle: Optional[int] = None


class FlowSignalFabric:
    """Consultation point for a flow's control signals."""

    def __init__(self) -> None:
        self.cycle = 0
        self._suppressions: List[ArmedFlowSuppression] = []

    def arm(self, signal: enum.Enum, from_cycle: int) -> ArmedFlowSuppression:
        armed = ArmedFlowSuppression(signal, from_cycle)
        self._suppressions.append(armed)
        return armed

    def asserted(self, signal: enum.Enum) -> bool:
        for armed in self._suppressions:
            if (
                not armed.fired
                and armed.signal is signal
                and self.cycle >= armed.from_cycle
            ):
                armed.fired = True
                armed.fired_cycle = self.cycle
                return False
        return True
