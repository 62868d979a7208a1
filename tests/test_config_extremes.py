"""Campaigns at CoreConfig extremes finish with no harness errors.

The harness must classify every injection at any legal design point: a
free list with one free register, a ROB no deeper than a rename group,
issue at the rename-width bound, one checkpoint slot, a 1-wide core, and
register counts that are not a power of two. At those counts a PdstID
corruption mask (drawn over the full encoding width) can name a register
that does not exist. That write lands and reaches IDLD's taps like any
other, and the core ends the run as *Assert* after IDLD's check: at the
end of that cycle, or, for a write a recovery walk made, when the walk
ends, instead of letting the PRF index fail in the issue stage. Each
extreme runs the same small campaign from snapshots and on the cold
oracle: no task is quarantined, and the two agree result for result.
"""

import pytest

from repro.bugs.models import PRIMARY_MODELS, BugModel
from repro.analysis.outcomes import OutcomeClass
from repro.core.config import CoreConfig
from repro.exec.backends import SerialBackend
from repro.exec.engine import run_engine
from repro.exec.resilience import FaultPolicy
from repro.workloads import WORKLOADS

from tests.support import cold_campaign

BENCHMARKS = ("sha", "qsort", "crc32")
RUNS = 3
SEED = 5

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


def _campaign(programs, config, runs=RUNS):
    # No retries: a harness error shows as a quarantine on first sight.
    return run_engine(
        programs, runs, seed=SEED, config=config,
        backend=SerialBackend(FaultPolicy(max_task_retries=0)),
    )


#: With one free register, a leaked identifier starves rename for good,
#: so no injection of this small campaign re-converges early.
NEVER_CONVERGES = ("one-free-register",)


@pytest.mark.parametrize("extreme", EXTREMES)
def test_campaign_quarantines_nothing_and_snapshots_match_cold(
    extreme, programs
):
    config = CoreConfig(**EXTREMES[extreme])
    warm = _campaign(programs, config)
    cold = cold_campaign(programs, RUNS, seed=SEED, config=config)
    assert not warm.failures, [
        record.failure.message for record in warm.failures
    ]
    assert len(warm.results) == RUNS * len(PRIMARY_MODELS) * len(BENCHMARKS)
    assert warm.results == cold.results
    assert any(r.warm_start_cycles_skipped > 0 for r in warm.results)
    if extreme not in NEVER_CONVERGES:
        assert any(
            r.early_terminated_cycle is not None for r in warm.results
        )


def test_a_corruption_past_the_register_count_is_an_assert(programs):
    """At 48 registers a 6-bit mask can drive PdstID 48..63: such a run is
    classified *Assert*, and only a corruption ends that way. The writes
    here all come from the rename stage, so each run ends in the cycle
    the corruption fires, and IDLD detects it in that same cycle."""
    cold = cold_campaign(
        programs, RUNS, seed=SEED,
        config=CoreConfig(**EXTREMES["48-registers"]),
    )
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
    does not exist: the run stops only after IDLD's check, so IDLD detects
    every activation. A write from the rename stage ends its run in its
    own cycle; one from a recovery walk ends it when the walk ends, after
    IDLD's flow-end check, so every *Assert* is detected in its last
    cycle and some after their activation cycle. The cold oracle ends
    those walk-made runs the same way, result for result."""
    config = CoreConfig(**EXTREMES[extreme])
    campaign = _campaign(programs, config, runs=20)
    assert not campaign.failures
    assert campaign.results == cold_campaign(
        programs, 20, seed=SEED, config=config
    ).results
    activated = [r for r in campaign.results if r.activated]
    assert activated
    assert [r for r in activated if r.idld_cycle is None] == []
    asserts = [
        r for r in activated if r.outcome is OutcomeClass.ASSERT
    ]
    assert asserts
    for result in asserts:
        assert result.idld_cycle == result.final_cycle
    assert any(r.idld_cycle > r.activation_cycle for r in asserts)
