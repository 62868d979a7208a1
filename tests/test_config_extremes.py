"""Campaigns at CoreConfig extremes finish with no harness errors.

The harness must classify every injection at any legal design point: a
free list with one free register, a ROB no deeper than a rename group,
issue at the rename-width bound, one checkpoint slot, a 1-wide core, and
register counts that are not a power of two. At those counts a PdstID
corruption mask (drawn over the full encoding width) can name a register
that does not exist. That write lands and reaches IDLD's taps like any
other, and the core ends the run as *Assert* at the end of that cycle,
after IDLD's check, instead of letting the PRF index fail in the issue
stage. Each extreme runs the same small campaign cold and from
snapshots: no task is quarantined, and the two agree result for result.
"""

import pytest

from repro.bugs.models import PRIMARY_MODELS, BugModel
from repro.analysis.outcomes import OutcomeClass
from repro.core.config import CoreConfig
from repro.exec.backends import SerialBackend
from repro.exec.engine import run_engine
from repro.exec.resilience import FaultPolicy
from repro.workloads import WORKLOADS

BENCHMARKS = ("sha", "qsort", "crc32")
RUNS = 3
SEED = 5
INTERVAL = 25

#: Each extreme as CoreConfig overrides. The RHT holds as many entries as
#: there are registers, so a small register file needs a small ROB and a
#: short checkpoint interval.
EXTREMES = {
    "48-registers": dict(
        num_physical_regs=48, rob_entries=32, checkpoint_interval=8
    ),
    "40-registers-checkpoint-free": dict(
        num_physical_regs=40, rob_entries=24, checkpoint_interval=8,
        recovery_strategy="checkpoint-free",
    ),
    "one-free-register": dict(
        num_physical_regs=33, rob_entries=24, checkpoint_interval=8
    ),
    "rob-equals-width": dict(width=4, rob_entries=4),
    "8-wide-issue": dict(width=8, issue_width=8),
    "one-checkpoint-stack": dict(
        num_checkpoints=1, free_list_discipline="stack"
    ),
    "1-wide-rob-walk": dict(width=1, recovery_strategy="rob-walk"),
}


@pytest.fixture(scope="module")
def programs():
    return {name: WORKLOADS[name](scale=0.25) for name in BENCHMARKS}


def _campaign(programs, config, snapshot_interval):
    # No retries: a harness error shows as a quarantine on first sight.
    return run_engine(
        programs, RUNS, seed=SEED, config=config,
        backend=SerialBackend(FaultPolicy(max_task_retries=0)),
        snapshot_interval=snapshot_interval,
    )


@pytest.mark.parametrize("overrides", EXTREMES.values(), ids=EXTREMES)
def test_campaign_quarantines_nothing_and_snapshots_match_cold(
    overrides, programs
):
    config = CoreConfig(**overrides)
    cold = _campaign(programs, config, 0)
    warm = _campaign(programs, config, INTERVAL)
    for campaign in (cold, warm):
        assert not campaign.failures, [
            record.failure.message for record in campaign.failures
        ]
        assert len(campaign.results) == (
            RUNS * len(PRIMARY_MODELS) * len(BENCHMARKS)
        )
    assert warm.results == cold.results


def test_a_corruption_past_the_register_count_is_an_assert(programs):
    """At 48 registers a 6-bit mask can drive PdstID 48..63: such a run is
    classified *Assert* in the cycle the corruption fires, IDLD detects it
    in that same cycle, and only a corruption ends that way."""
    cold = _campaign(programs, CoreConfig(**EXTREMES["48-registers"]), 0)
    asserts = [
        r for r in cold.results if r.outcome is OutcomeClass.ASSERT
    ]
    assert asserts
    for result in asserts:
        assert result.spec.model is BugModel.PDST_CORRUPTION
        assert result.activated
        assert result.manifestation_cycle == result.activation_cycle
        assert result.idld_cycle == result.activation_cycle
        assert result.final_cycle == result.activation_cycle


#: The extremes whose register count is not a power of two.
UNDEFINED_IDENTIFIERS = (
    "48-registers", "40-registers-checkpoint-free", "one-free-register"
)


@pytest.mark.parametrize("extreme", UNDEFINED_IDENTIFIERS)
def test_idld_detects_every_activation_at_a_register_count_off_a_power_of_two(
    extreme, programs
):
    """Fig. 9's claim holds where a corruption can name a register that
    does not exist: the run stops only after IDLD's cycle-end check, so
    IDLD detects every activation, *Assert* runs in their own cycle."""
    cold = _campaign(programs, CoreConfig(**EXTREMES[extreme]), 0)
    activated = [r for r in cold.results if r.activated]
    assert activated
    assert [r for r in activated if r.idld_cycle is None] == []
    asserts = [
        r for r in activated if r.outcome is OutcomeClass.ASSERT
    ]
    assert asserts
    for result in asserts:
        assert result.idld_cycle == result.activation_cycle
