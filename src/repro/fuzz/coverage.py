"""Microarchitectural coverage for the fuzzer.

The probe is an ordinary :class:`~repro.core.rrs.ports.RRSObserver`: it
rides the same port-event bus as the detectors, so it sees exactly the
RRS traffic a run actually produced. Each run is summarized as a set of
*feature buckets* — log2-bucketed counts of the control events that make
renaming hard (flush depth, recovery length, checkpoint pressure, Free
List occupancy extremes, LSQ replays, per-cycle rename-width utilization).
A run is "interesting" (enters the corpus) when it hits a bucket no prior
run hit, which steers mutation toward unexplored RRS control behaviour —
the CSR/microarchitectural guidance idea of ProcessorFuzz/DejaVuzz applied
to the renaming subsystem.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from repro.core.rrs.ports import RRSObserver


def log_bucket(value: int) -> int:
    """Coarse log2 bucket: 0, 1, 2 stay distinct; 3 maps to 3, 4-7 to 4,
    8-15 to 5, ... so no two count ranges share a bucket."""
    return value if value <= 2 else value.bit_length() + 1


class CoverageProbe(RRSObserver):
    """Harvests one run's feature buckets from the RRS port events."""

    def __init__(self) -> None:
        self._keys: Set[str] = set()
        self._fl_occ = 0
        self._fl_min = 0
        self._fl_max = 0
        self._allocs_this_cycle = 0
        self._recovery_start = 0
        self._flushes = 0
        self._replays = 0
        self._ckpt_live = 0
        self._ckpt_live_max = 0
        self._ckpt_taken = 0
        self._ckpt_restored = 0
        self._empty_cycles = 0

    # -- port taps ----------------------------------------------------------

    def power_on(self, num_physical, num_logical, initial_free, initial_rat):
        self.__init__()
        self._fl_occ = len(initial_free)
        self._fl_min = self._fl_occ
        self._fl_max = self._fl_occ

    def fl_read(self, pdst: int) -> None:
        self._fl_occ -= 1
        self._fl_min = min(self._fl_min, self._fl_occ)
        self._allocs_this_cycle += 1

    def fl_write(self, pdst: int) -> None:
        self._fl_occ += 1
        self._fl_max = max(self._fl_max, self._fl_occ)

    def recovery_begin(self, cycle: int) -> None:
        self._recovery_start = cycle
        self._flushes += 1

    def recovery_end(self, cycle: int) -> None:
        self._keys.add(
            f"recovery_len:{log_bucket(cycle - self._recovery_start)}"
        )

    def flush_initiated(self, cycle: int, offender_seq: int, squashed: int) -> None:
        self._keys.add(f"flush_squash:{log_bucket(squashed)}")

    def load_replay(self, cycle: int, seq: int) -> None:
        self._replays += 1

    def checkpoint_content(self, slot: int, pos: int) -> None:
        self._ckpt_live += 1
        self._ckpt_live_max = max(self._ckpt_live_max, self._ckpt_live)
        self._ckpt_taken += 1

    def checkpoint_restored(self, slot: int) -> None:
        self._ckpt_restored += 1

    def checkpoint_freed(self, slot: int) -> None:
        self._ckpt_live = max(0, self._ckpt_live - 1)

    def pipeline_empty(self, cycle: int) -> None:
        self._empty_cycles += 1

    def cycle_end(self, cycle: int) -> None:
        # Rename-width utilization: how many Pdst allocations landed in
        # this cycle (0..width).
        self._keys.add(f"alloc_w:{self._allocs_this_cycle}")
        self._allocs_this_cycle = 0

    # -- run summary --------------------------------------------------------

    def buckets(self) -> Set[str]:
        """All feature buckets this run hit (aggregate counters folded in)."""
        keys = set(self._keys)
        keys.add(f"fl_min:{log_bucket(self._fl_min)}")
        keys.add(f"fl_max:{log_bucket(self._fl_max)}")
        keys.add(f"flushes:{log_bucket(self._flushes)}")
        keys.add(f"replays:{log_bucket(self._replays)}")
        keys.add(f"ckpt_live:{self._ckpt_live_max}")
        keys.add(f"ckpt_taken:{log_bucket(self._ckpt_taken)}")
        keys.add(f"ckpt_restored:{log_bucket(self._ckpt_restored)}")
        keys.add(f"pipe_empty:{log_bucket(self._empty_cycles)}")
        return keys


class CoverageMap:
    """Accumulated bucket hit-counts across a whole fuzzing campaign."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}

    def add(self, keys: Iterable[str]) -> List[str]:
        """Fold one run's buckets in; returns the never-seen-before ones,
        sorted (deterministic regardless of input order)."""
        fresh = []
        for key in keys:
            if key not in self.counts:
                fresh.append(key)
                self.counts[key] = 0
            self.counts[key] += 1
        return sorted(fresh)

    def __len__(self) -> int:
        return len(self.counts)

    def by_feature(self) -> Dict[str, int]:
        """Distinct buckets hit per feature family (the report rows)."""
        families: Dict[str, int] = {}
        for key in self.counts:
            family = key.split(":", 1)[0]
            families[family] = families.get(family, 0) + 1
        return families
