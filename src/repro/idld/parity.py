"""Per-entry parity protection for stored PdstIDs (Section V.D's companion).

"The purpose of the proposed IDLD scheme is not to detect bugs that cause
a Pdst corruption while a PdstID is already stored in FL, RAT, or ROB.
Such simple bugs can be detected by other well-established schemes, like
ECC [46] or circular parity [47]. Such schemes are orthogonal to IDLD and
can be combined to provide a comprehensive RRS protection."

:class:`ParityStore` models the classic scheme: a parity bit is computed
and stored with every array write and re-checked on every read. An at-rest
upset flips stored data without updating the parity bit, so the next read
of that location raises an alarm -- with the *location* attached, which is
exactly what IDLD's aggregate code cannot provide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple


def parity(value: int) -> int:
    """Even parity of a non-negative integer."""
    return bin(value).count("1") & 1


@dataclass
class ParityAlarm:
    """One detected stored-value corruption."""

    cycle: int
    array: str
    location: Hashable
    value: int


class ParityStore:
    """Shadow parity bits for one array's PdstID storage.

    The arrays call :meth:`on_write` whenever a location is (re)written
    through a port and :meth:`on_read` whenever it is read; a fault
    injector that flips stored data bypasses :meth:`on_write` by design
    (real upsets do not update parity either).
    """

    def __init__(self, array_name: str, enabled: bool = True) -> None:
        self.array_name = array_name
        self.enabled = enabled
        self._bits: Dict[Hashable, int] = {}
        self.alarms: List[ParityAlarm] = []

    def reset(self) -> None:
        self._bits = {}
        self.alarms = []

    def on_write(self, location: Hashable, value: int) -> None:
        """A legitimate port write: parity follows the data."""
        self._bits[location] = parity(value)

    def on_read(self, location: Hashable, value: int, cycle: int) -> None:
        """A port read: check the stored parity, if we have one."""
        if not self.enabled:
            return
        expected = self._bits.get(location)
        if expected is not None and parity(value) != expected:
            self.alarms.append(
                ParityAlarm(cycle, self.array_name, location, value)
            )

    @property
    def detected(self) -> bool:
        return bool(self.alarms)

    @property
    def first_detection_cycle(self) -> Optional[int]:
        return self.alarms[0].cycle if self.alarms else None

    # -- warm-start snapshot/restore -----------------------------------------

    def save_state(self) -> tuple:
        """Snapshot shadow parity bits + alarms for the warm-start layer."""
        return (
            self.enabled,
            dict(self._bits),
            tuple(
                (a.cycle, a.array, a.location, a.value) for a in self.alarms
            ),
        )

    def load_state(self, state: tuple) -> None:
        """Restore a :meth:`save_state` snapshot."""
        enabled, bits, alarms = state
        self.enabled = enabled
        self._bits = dict(bits)
        self.alarms = [ParityAlarm(*a) for a in alarms]
