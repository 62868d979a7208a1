"""Shared campaign for the figure benches.

The paper runs 30,000 injections (10 benchmarks x 3,000); the bench suite
defaults to a laptop-scale sample over all ten benchmarks and three bug
models. Scale knobs:

* ``IDLD_BENCH_RUNS``  -- injections per (benchmark, model) pair [6]
* ``IDLD_BENCH_SCALE`` -- workload input-size scale [1.0]

EXPERIMENTS.md records a run at the default scale next to the paper's
numbers; the reproduction target is the shape (orderings, bands,
crossovers), not absolute percentages.
"""

import os

import pytest

from repro.exec.engine import run_engine
from repro.workloads import build_suite

BENCH_RUNS = int(os.environ.get("IDLD_BENCH_RUNS", "6"))
BENCH_SCALE = float(os.environ.get("IDLD_BENCH_SCALE", "1.0"))
BENCH_SEED = 20220522  # fixed: figures must be reproducible run-to-run


@pytest.fixture(scope="session")
def figure_suite():
    return build_suite(scale=BENCH_SCALE)


@pytest.fixture(scope="session")
def figure_campaign(figure_suite):
    """The one campaign every figure bench reports from."""
    return run_engine(
        figure_suite, runs_per_model=BENCH_RUNS, seed=BENCH_SEED
    )


def emit(lines) -> None:
    """Print a figure's rows (pytest -s or the captured report shows them)."""
    print()
    for line in lines:
        print(line)
