"""Shared fixtures: cached workloads, golden runs and a small campaign."""

from __future__ import annotations

import pytest

from repro.bugs.campaign import run_golden
from repro.core.config import CoreConfig
from repro.exec.engine import run_engine
from repro.workloads import build_suite

#: Benchmarks used by the expensive integration fixtures (fast subset).
FAST_BENCHES = ("bitcount", "sha", "qsort", "stringsearch")


@pytest.fixture(scope="session")
def suite():
    """All ten workloads at default scale."""
    return build_suite()


@pytest.fixture(scope="session")
def fast_suite(suite):
    """The quick-running subset used for campaign-level tests."""
    return {name: suite[name] for name in FAST_BENCHES}


@pytest.fixture(scope="session")
def goldens(suite):
    """Bug-free reference runs for every workload."""
    return {name: run_golden(program) for name, program in suite.items()}


@pytest.fixture(scope="session")
def small_campaign(fast_suite):
    """One shared injection campaign, run from snapshots."""
    return run_engine(fast_suite, runs_per_model=8, seed=1234)


@pytest.fixture()
def default_config():
    return CoreConfig()
