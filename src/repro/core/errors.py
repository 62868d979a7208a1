"""Exception types raised by the cycle-level core.

These map onto the paper's observable bug-effect classes (Section VI.C):

* :class:`SimulatorAssertion` -> the **Assert** class ("a high-level
  condition that the simulator is unable to handle").
* :class:`MemoryFault` -> the **Crash** class (committed access outside the
  legal memory window, the simulator analog of a segfault/kernel panic).

They are *only* raised for conditions a real machine could reach after a bug
(e.g. a Free List overflow caused by a duplicated reclaim); bug injection
itself never raises.
"""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all simulator-raised errors."""


class SimulatorAssertion(SimulationError):
    """An internal microarchitectural invariant was violated.

    Corresponds to the paper's *Assert* outcome class: the simulator cannot
    decide how real hardware would behave past this point.
    """

    def __init__(self, cycle: int, message: str) -> None:
        super().__init__(f"cycle {cycle}: {message}")
        self.cycle = cycle


class MemoryFault(SimulationError):
    """A committed memory access fell outside the legal address window.

    Corresponds to the paper's *Crash* outcome class (process/system crash).
    """

    def __init__(self, cycle: int, address: int) -> None:
        super().__init__(f"cycle {cycle}: memory fault at address {address:#x}")
        self.cycle = cycle
        self.address = address


class DeadlockError(SimulationError):
    """The core made no forward progress for the configured window.

    Folded into the *Timeout* outcome class by the classifier.
    """

    def __init__(self, cycle: int, message: str = "no forward progress") -> None:
        super().__init__(f"cycle {cycle}: {message}")
        self.cycle = cycle

