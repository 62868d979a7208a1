"""The counting alternative scheme of Section V.E.

"Another way to track the PdstID-invariance is by counting the number of
free and allocated registers and checking that their sum is equal to the
number of unique Pdsts... However, unlike IDLD, this scheme cannot detect a
combined duplication and leakage, since the total number of PdstIDs remains
invariant (x+1-1=x). Further, it cannot capture corruption in a PdstID."

The ablation bench (`benchmarks/test_ablation_alternatives.py`) measures
exactly these blind spots against IDLD.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.rrs.ports import RRSObserver


@dataclass
class CounterDetection:
    """One counter-scheme alarm (free count off at a quiescent point)."""

    cycle: int
    free_count: int
    expected: int


class CounterScheme(RRSObserver):
    """log2(#Pdsts)-bit free-register counter, checked at quiescence.

    Attributes:
        detections: The first alarm, or empty. The alarm latches: once it
            holds a record, later checks return early, while the counter
            keeps tracking.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._free = 0
        self._expected_free = 0
        self.detections: List[CounterDetection] = []

    def power_on(self, num_physical, num_logical, initial_free, initial_rat):
        self._free = len(initial_free)
        self._expected_free = num_physical - num_logical
        self.detections = []

    def fl_read(self, pdst: int) -> None:
        self._free -= 1

    def fl_write(self, pdst: int) -> None:
        self._free += 1

    def pipeline_empty(self, cycle: int) -> None:
        if self.detections or not self.enabled:
            return
        if self._free != self._expected_free:
            self.detections.append(
                CounterDetection(cycle, self._free, self._expected_free)
            )

    def fast_forward(
        self, start_cycle: int, end_cycle: int, pipeline_empty: bool
    ) -> None:
        """Closed-form replay of ``pipeline_empty`` over a skipped span:
        the free counter is constant (no FL traffic in a quiescent span),
        so the per-cycle checks would have latched a detection at the
        span's first cycle (or none). See the bulk-replay protocol in
        :mod:`repro.core.rrs.ports`."""
        if pipeline_empty:
            self.pipeline_empty(start_cycle + 1)

    def mirrors(self, free: Sequence[int]) -> bool:
        """True when the counter holds the size of the free list ``free``."""
        return self._free == len(free)

    @property
    def detected(self) -> bool:
        return bool(self.detections)

    @property
    def first_detection_cycle(self) -> Optional[int]:
        return self.detections[0].cycle if self.detections else None

    # -- warm-start snapshot/restore -----------------------------------------

    def save_state(self) -> tuple:
        """Snapshot the free counter + detections for the warm-start layer."""
        return (
            self.enabled,
            self._free,
            self._expected_free,
            tuple(
                (d.cycle, d.free_count, d.expected) for d in self.detections
            ),
        )

    def load_state(self, state: tuple) -> None:
        """Restore a :meth:`save_state` snapshot."""
        enabled, free, expected_free, detections = state
        self.enabled = enabled
        self._free = free
        self._expected_free = expected_free
        self.detections = [CounterDetection(*d) for d in detections]
