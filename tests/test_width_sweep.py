"""Width-sweep coverage for the paper RRS configuration (Section VI).

``paper_rrs_config`` scales the rename/commit/walk widths together; the
campaign engine must stay deterministic across worker counts at every
width, and the IDLD invariant must keep catching armed leak/duplication
bugs as the machine widens.
"""

import pytest

from repro.bugs.models import PRIMARY_MODELS
from repro.core import OoOCore
from repro.core.config import paper_rrs_config
from repro.core.rrs.signals import ArrayName, SignalFabric, SignalKind
from repro.exec.backends import ProcessPoolBackend, SerialBackend
from repro.exec.engine import run_engine
from repro.exec.tasks import generate_tasks
from repro.idld import IDLDChecker
from repro.workloads import WORKLOADS

WIDTHS = (1, 2, 4, 6, 8)


@pytest.fixture(scope="module")
def tiny_workload():
    return {"crc32": WORKLOADS["crc32"](scale=0.25)}


class TestCampaignDeterminismAcrossWidths:
    @pytest.mark.parametrize("width", WIDTHS)
    def test_jobs2_bit_identical_to_serial(self, width, tiny_workload):
        config = paper_rrs_config(width=width)
        serial = run_engine(
            tiny_workload, runs_per_model=1, seed=11, config=config,
            backend=SerialBackend(),
        )
        pooled = run_engine(
            tiny_workload, runs_per_model=1, seed=11, config=config,
            backend=ProcessPoolBackend(2),
        )
        assert serial.results == pooled.results
        assert serial.failures == [] and pooled.failures == []

    def test_widths_are_distinct_design_points(self, tiny_workload):
        """Same seed, different width: the runs must differ (otherwise the
        config is not actually reaching the core)."""
        narrow = run_engine(
            tiny_workload, runs_per_model=1, seed=11,
            config=paper_rrs_config(width=1),
        )
        wide = run_engine(
            tiny_workload, runs_per_model=1, seed=11,
            config=paper_rrs_config(width=8),
        )
        narrow_cycles = [r.final_cycle for r in narrow.results]
        wide_cycles = [r.final_cycle for r in wide.results]
        assert narrow_cycles != wide_cycles


class TestTasksCarryDesignPoint:
    """Tasks carry no design point of their own: the checkpoint manifest
    pins the geometry, and the task list ignores it."""

    def test_seed_derivation_config_independent(self):
        """Deliberate: the same master seed draws the same injection
        points at every design point, so cells are comparable."""
        wide = generate_tasks(
            ["crc32"], 2, list(PRIMARY_MODELS), seed=3, max_attempts=6,
            config=paper_rrs_config(width=8),
        )
        narrow = generate_tasks(
            ["crc32"], 2, list(PRIMARY_MODELS), seed=3, max_attempts=6,
            config=paper_rrs_config(width=1),
        )
        assert [t.derived_seed for t in wide] == [
            t.derived_seed for t in narrow
        ]
        assert [t.key for t in wide] == [t.key for t in narrow]


class TestIDLDAcrossWidths:
    def _armed_run(self, program, width, kind):
        fabric = SignalFabric()
        armed = fabric.arm_suppression(ArrayName.FL, kind, 100)
        checker = IDLDChecker()
        core = OoOCore(
            program, config=paper_rrs_config(width=width),
            observers=[checker], fabric=fabric,
        )
        try:
            core.run(max_cycles=60_000)
        except Exception:
            pass
        return armed, checker

    @pytest.mark.parametrize("width", WIDTHS)
    def test_leakage_caught_at_every_width(self, suite, width):
        armed, checker = self._armed_run(
            suite["bitcount"], width, SignalKind.WRITE_ENABLE
        )
        assert armed.fired
        assert checker.detected

    @pytest.mark.parametrize("width", WIDTHS)
    def test_duplication_caught_at_every_width(self, suite, width):
        armed, checker = self._armed_run(
            suite["bitcount"], width, SignalKind.READ_ENABLE
        )
        assert armed.fired
        assert checker.detected
