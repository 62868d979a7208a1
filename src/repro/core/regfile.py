"""Merged physical register file and readiness scoreboard.

"The results of operations are stored in a single physical register file
that combines the architectural and speculative state" (Section II). The
value storage is deliberately bug-transparent: rename bugs that map two
producers onto the same physical register, or a consumer onto a stale one,
corrupt dataflow *through values*, which is how leakage/duplication
eventually manifests architecturally (Figure 2's walkthrough).
"""

from __future__ import annotations

from typing import List


class PhysicalRegisterFile:
    """Values + ready bits for every physical register."""

    def __init__(self, num_regs: int) -> None:
        if num_regs < 1:
            raise ValueError("num_regs must be positive")
        self.num_regs = num_regs
        self._values: List[int] = [0] * num_regs
        self._ready: List[bool] = [True] * num_regs
        # Both ports are bare array indexes with no side effects, so bind
        # them straight to the list's C-level getitem. Every mutator below
        # edits the lists in place (never rebinds them), which keeps these
        # bindings valid for the life of the file.
        self.read = self._values.__getitem__
        self.is_ready = self._ready.__getitem__

    def reset(self) -> None:
        """Power-on: all registers hold zero and are ready."""
        self._values[:] = [0] * self.num_regs
        self._ready[:] = [True] * self.num_regs

    def mark_pending(self, pdst: int) -> None:
        """A newly-allocated destination awaits its producer."""
        self._ready[pdst] = False

    def write(self, pdst: int, value: int) -> None:
        """Producer writeback: store the value and wake consumers."""
        self._values[pdst] = value
        self._ready[pdst] = True

    # ``read`` and ``is_ready`` are instance attributes bound in __init__
    # (direct list getitem); the defs here document the port signatures and
    # serve any subclass that re-binds them.
    def is_ready(self, pdst: int) -> bool:  # pragma: no cover - shadowed
        return self._ready[pdst]

    def read(self, pdst: int) -> int:  # pragma: no cover - shadowed
        return self._values[pdst]

    # -- warm-start snapshot/restore -----------------------------------------

    def save_state(self) -> tuple:
        """Snapshot values + ready bits."""
        return (tuple(self._values), tuple(self._ready))

    def load_state(self, state: tuple) -> None:
        """Restore a :meth:`save_state` snapshot."""
        values, ready = state
        # Slice-assign keeps the list identities stable for the bound ports.
        self._values[:] = values
        self._ready[:] = ready
