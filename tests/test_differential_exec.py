"""Equivalence tests for differential suffix execution (repro.bugs.differential).

Differential mode buys its speed from convergence-terminated suffixes,
checked against the golden delta trace, and that is only admissible
because the result is *bit-identical* to the full-suffix run of the same
spec. These tests pin that at three levels:

* every suite benchmark x primary bug model at the default design point,
* the full 24-cell design-point sweep (rename width x free-list
  discipline x recovery strategy) on one benchmark, asserting outcome
  classification, detector verdicts and latency stats cell by cell,
* whole engine campaigns: batched ``--jobs N`` snapshot-driven execution
  stays bit-identical to a cold ``--jobs 1`` serial campaign.

``InjectionResult`` equality covers every simulation-outcome field —
outcome class, activation/manifestation/final cycles, persistence, the
IDLD/BV/Counter detection cycles and the end-of-test verdict; only the
throughput bookkeeping (``sim_wall_ns``, ``warm_start_cycles_skipped``,
``early_terminated_cycle``) is compare-excluded. So ``diff == full``
below is exactly the "identical classification, verdicts and latency"
claim of the acceptance criteria.
"""

import random

import pytest

from repro.bugs.campaign import run_injection
from repro.bugs.injector import draw_spec
from repro.bugs.models import PRIMARY_MODELS
from repro.bugs.snapshot import SnapshotProvider
from repro.core.config import (
    FREE_LIST_DISCIPLINES,
    RECOVERY_STRATEGIES,
    CoreConfig,
)
from repro.exec.backends import ProcessPoolBackend, SerialBackend
from repro.exec.engine import run_engine
from repro.workloads import WORKLOADS

SUITE = sorted(WORKLOADS)
SCALE = 0.4
INTERVAL = 20

#: The acceptance sweep: 4 widths x 2 disciplines x 3 recoveries = 24.
WIDTHS = (1, 2, 4, 8)
SWEEP_CELLS = [
    (width, discipline, recovery)
    for width in WIDTHS
    for discipline in FREE_LIST_DISCIPLINES
    for recovery in RECOVERY_STRATEGIES
]


@pytest.fixture(scope="module")
def programs():
    return {name: WORKLOADS[name](scale=SCALE) for name in SUITE}


# -- every benchmark x primary model, default design point --------------------


@pytest.mark.parametrize("name", SUITE)
def test_differential_equals_full_suffix(name, programs):
    """run_injection(snapshots=provider) == cold run, all models."""
    prog = programs[name]
    provider = SnapshotProvider(prog, INTERVAL)
    golden = provider.golden
    rng = random.Random(0xD1FF)
    config = CoreConfig()
    for model in PRIMARY_MODELS:
        spec = draw_spec(model, rng, golden.cycles, config)
        full = run_injection(prog, golden, spec)
        diff = run_injection(prog, golden, spec, snapshots=provider)
        assert diff == full, f"{name}/{model.value} diverged"
        assert full.early_terminated_cycle is None


def test_differential_actually_terminates_early(programs):
    """The mode must engage, not silently fall back to full suffixes."""
    prog = programs["bitcount"]
    provider = SnapshotProvider(prog, INTERVAL)
    golden = provider.golden
    rng = random.Random(3)
    config = CoreConfig()
    early = 0
    for trial in range(12):
        for model in PRIMARY_MODELS:
            spec = draw_spec(model, rng, golden.cycles, config)
            diff = run_injection(prog, golden, spec, snapshots=provider)
            if diff.early_terminated_cycle is not None:
                early += 1
    assert early > 0, "no run ever terminated early"


# -- the 24-cell design-point sweep -------------------------------------------


@pytest.mark.parametrize(
    "width,discipline,recovery",
    SWEEP_CELLS,
    ids=[f"w{w}-{d}-{r}" for w, d, r in SWEEP_CELLS],
)
def test_differential_equals_full_across_sweep_cells(width, discipline, recovery):
    """All 24 (width, discipline, recovery) cells: classification, detector
    verdicts and latency stats identical between differential and full."""
    config = CoreConfig(
        width=width,
        free_list_discipline=discipline,
        recovery_strategy=recovery,
    )
    prog = WORKLOADS["crc32"](scale=0.25)
    provider = SnapshotProvider(prog, INTERVAL, config=config)
    golden = provider.golden
    rng = random.Random(width * 1000 + hash((discipline, recovery)) % 997)
    for model in PRIMARY_MODELS:
        spec = draw_spec(model, rng, golden.cycles, config)
        full = run_injection(prog, golden, spec, config=config)
        diff = run_injection(
            prog,
            golden,
            spec,
            config=config,
            snapshots=provider,
        )
        cell = f"w{width}/{discipline}/{recovery}/{model.value}"
        assert diff.outcome == full.outcome, cell
        assert (diff.idld_cycle, diff.bv_cycle, diff.counter_cycle) == (
            full.idld_cycle,
            full.bv_cycle,
            full.counter_cycle,
        ), cell
        assert diff.eot_detected == full.eot_detected, cell
        assert (
            diff.activation_cycle,
            diff.manifestation_cycle,
            diff.final_cycle,
            diff.persists,
        ) == (
            full.activation_cycle,
            full.manifestation_cycle,
            full.final_cycle,
            full.persists,
        ), cell
        assert diff == full, cell  # belt and braces: every compared field


# -- engine level: batching and worker count ----------------------------------


def test_engine_batched_jobs_identical_to_serial(programs):
    """Snapshot-driven + batched + pooled campaigns == cold campaigns."""
    subset = {name: programs[name] for name in ("bitcount", "crc32")}
    base = run_engine(subset, 2, seed=9)

    serial_diff = run_engine(
        subset,
        2,
        seed=9,
        snapshot_interval=INTERVAL,
        batch_size=1,
    )
    assert serial_diff.results == base.results

    batched_serial = run_engine(
        subset,
        2,
        seed=9,
        snapshot_interval=INTERVAL,
        batch_size=4,
        backend=SerialBackend(),
    )
    assert batched_serial.results == base.results

    batched_pooled = run_engine(
        subset,
        2,
        seed=9,
        snapshot_interval=INTERVAL,
        batch_size=4,
        backend=ProcessPoolBackend(jobs=2),
    )
    assert batched_pooled.results == base.results
