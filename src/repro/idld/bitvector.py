"""The bit-vector (BV) alternative scheme the paper compares against.

Section V.E: "a bit-vector that has as many bits as unique Pdsts... The bit
position corresponding to a Pdst is set when its PdstID is freed and unset
when allocated. Duplication is detected when a PdstID becomes free, and its
bit is already set. Leakage is detected by counting the number of free
registers... when the pipeline is empty and checking that it is equal to
the difference between the number of physical and logical registers."

The scheme's structural weaknesses are exactly what Figure 10 measures:
detection waits for a reclamation or a quiescent pipeline (unbounded
latency), and bug activations whose effect is repaired before either event
(e.g. wrong-path leakage recovered through the RHT) are never seen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence


@dataclass
class BVDetection:
    """One BV-scheme alarm."""

    cycle: int
    kind: str  # "duplication" or "leakage"
    pdst: Optional[int] = None
    free_count: Optional[int] = None


from repro.core.rrs.ports import RRSObserver


class BitVectorScheme(RRSObserver):
    """Free/allocated bit per physical register with quiescent leak probe.

    Attributes:
        detections: The first alarm, or empty. The alarm latches: once it
            holds a record, later duplications and leak probes record
            nothing, while the bit vector and free count keep tracking.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._bits: List[bool] = []
        self._free_count = 0
        self._expected_free = 0
        self.detections: List[BVDetection] = []
        self._cycle = 0

    def power_on(self, num_physical, num_logical, initial_free, initial_rat):
        self._bits = [False] * num_physical
        for pdst in initial_free:
            self._bits[pdst] = True
        # Maintained incrementally so the quiescent leak probe, which fires
        # every pipeline-empty cycle, does not rescan the whole vector.
        self._free_count = sum(self._bits)
        self._expected_free = num_physical - num_logical
        self.detections = []
        self._cycle = 1

    def cycle_end(self, cycle: int) -> None:
        # Port events arrive before their cycle's cycle_end; stamp them with
        # the upcoming cycle number.
        self._cycle = cycle + 1

    def fl_read(self, pdst: int) -> None:
        # Allocation clears the free bit.
        if 0 <= pdst < len(self._bits):
            if self._bits[pdst]:
                self._free_count -= 1
            self._bits[pdst] = False

    def fl_write(self, pdst: int) -> None:
        # Reclamation with the bit already set is a duplication.
        if not 0 <= pdst < len(self._bits):
            return
        if self._bits[pdst]:
            if self.enabled and not self.detections:
                self.detections.append(
                    BVDetection(self._cycle, "duplication", pdst=pdst)
                )
        else:
            self._free_count += 1
        self._bits[pdst] = True

    def pipeline_empty(self, cycle: int) -> None:
        if self.detections or not self.enabled:
            return
        free = self._free_count
        if free != self._expected_free:
            self.detections.append(
                BVDetection(cycle, "leakage", free_count=free)
            )

    def fast_forward(
        self, start_cycle: int, end_cycle: int, pipeline_empty: bool
    ) -> None:
        """Closed-form replay of the per-cycle hooks over a skipped span.

        No FL traffic happens in a quiescent span, so the bit vector and
        free count are constant: the skipped cycles would have latched a
        leakage detection at the span's first cycle iff the pipeline was
        empty and the count off, then advanced the event clock. See the
        bulk-replay protocol in :mod:`repro.core.rrs.ports`.
        """
        if pipeline_empty:
            self.pipeline_empty(start_cycle + 1)
        self._cycle = end_cycle + 1

    def mirrors(self, free: Sequence[int]) -> bool:
        """True when the vector marks exactly the identifiers in ``free``
        (a free list holding each once) as free."""
        bits = self._bits
        return self._free_count == len(free) and all(
            0 <= pdst < len(bits) and bits[pdst] for pdst in free
        )

    @property
    def detected(self) -> bool:
        return bool(self.detections)

    @property
    def first_detection_cycle(self) -> Optional[int]:
        return self.detections[0].cycle if self.detections else None

    # -- warm-start snapshot/restore -----------------------------------------

    def save_state(self) -> tuple:
        """Snapshot bits + detections for the warm-start layer."""
        return (
            self.enabled,
            tuple(self._bits),
            self._expected_free,
            tuple(
                (d.cycle, d.kind, d.pdst, d.free_count)
                for d in self.detections
            ),
            self._cycle,
        )

    def load_state(self, state: tuple) -> None:
        """Restore a :meth:`save_state` snapshot."""
        enabled, bits, expected_free, detections, cycle = state
        self.enabled = enabled
        self._bits = list(bits)
        self._free_count = sum(self._bits)
        self._expected_free = expected_free
        self.detections = [BVDetection(*d) for d in detections]
        self._cycle = cycle
