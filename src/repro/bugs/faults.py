"""At-rest storage faults (the Section V.D scope boundary).

These model upsets that corrupt a PdstID *while it sits* in the FL, RAT or
ROB -- explicitly outside IDLD's charter ("the purpose of the proposed
IDLD scheme is not to detect bugs that cause a Pdst corruption while a
PdstID is already stored") and exactly what per-entry parity/ECC covers.
The ablation bench uses them to measure the orthogonality claim.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.core.cpu import OoOCore
from repro.core.errors import SimulationError


@dataclass
class AtRestFault:
    """One injected storage upset."""

    array: str
    location: int
    xor_mask: int
    cycle: int
    corrupted_value: int


def inject_at_rest_fault(
    core: OoOCore, rng: random.Random
) -> Optional[AtRestFault]:
    """Flip one bit (a classic single-event upset) in a randomly chosen
    live PdstID location.

    The target array is drawn proportionally to its live PdstID occupancy;
    returns None when nothing is live (nothing to corrupt).
    """
    mask = 1 << rng.randrange(core.config.pdst_bits)
    candidates = []
    fl_count = core.free_list.count
    if fl_count:
        candidates.append(("FL", fl_count))
    candidates.append(("RAT", core.rat.num_logical))
    rob_live = len(core.rob.live_evicted_ids())
    if rob_live:
        candidates.append(("ROB", rob_live))
    total = sum(weight for _, weight in candidates)
    pick = rng.randrange(total)
    for array, weight in candidates:
        if pick < weight:
            break
        pick -= weight
    if array == "FL":
        location = rng.randrange(fl_count)
        value = core.free_list.corrupt_stored(location, mask)
    elif array == "RAT":
        location = rng.randrange(core.rat.num_logical)
        value = core.rat.corrupt_stored(location, mask)
    else:
        location = rng.randrange(rob_live)
        value = core.rob.corrupt_stored(location, mask)
    return AtRestFault(array, location, mask, core.cycle, value)


def run_with_at_rest_fault(
    core: OoOCore,
    at_cycle: int,
    rng: random.Random,
    max_cycles: int = 100_000,
):
    """Run ``core`` to ``max_cycles`` through :meth:`OoOCore.run_cycles`,
    so its deadlock watchdog applies, injecting one at-rest fault at
    ``at_cycle``.

    Returns ``(fault, result, error_or_none)``; a run the fault wedges
    returns its :class:`~repro.core.errors.DeadlockError`.
    """
    fault = None
    error = None
    try:
        core.run_cycles(min(at_cycle, max_cycles))
        if not core.halted and at_cycle <= core.cycle < max_cycles:
            fault = inject_at_rest_fault(core, rng)
        core.run_cycles(max_cycles)
    except SimulationError as exc:
        error = exc
    return fault, core.result(), error


def parity_detected(core: OoOCore) -> bool:
    """True when any of the core's parity stores raised an alarm."""
    return any(store.detected for store in core.parity.values())
