"""Tests for the injection campaign driver and its aggregations."""

import pytest

from repro.analysis.outcomes import OutcomeClass
from repro.bugs.campaign import run_campaign, run_golden, run_injection
from repro.bugs.models import BugModel, BugSpec, PRIMARY_MODELS
from repro.bugs.snapshot import SnapshotProvider
from repro.core.rrs.signals import ArrayName, SignalKind


class TestGolden:
    def test_golden_halts(self, suite):
        golden = run_golden(suite["sha"])
        assert golden.halted and golden.output

    def test_golden_deterministic(self, suite):
        a = run_golden(suite["qsort"])
        b = run_golden(suite["qsort"])
        assert a.cycles == b.cycles and a.output == b.output


class TestSingleInjection:
    def test_injection_records_everything(self, suite):
        golden = run_golden(suite["bitcount"])
        spec = BugSpec(
            BugModel.LEAKAGE, 100, array=ArrayName.RAT,
            kind=SignalKind.WRITE_ENABLE,
        )
        record = run_injection(suite["bitcount"], golden, spec)
        assert record.benchmark == "bitcount"
        assert record.activated
        assert record.outcome in OutcomeClass
        assert record.idld_detected
        assert record.idld_latency is not None and record.idld_latency >= 0

    @pytest.mark.parametrize("mode", ["cold", "snapshots"])
    def test_latency_properties_none_when_undetected(self, suite, mode):
        program = suite["sha"]
        golden = run_golden(program)
        # Arm far past the end of the run: it never fires.
        spec = BugSpec(
            BugModel.LEAKAGE, golden.cycles * 10, array=ArrayName.FL,
            kind=SignalKind.WRITE_ENABLE,
        )
        cold = run_injection(program, golden, spec)
        if mode == "cold":
            record = cold
        else:
            provider = SnapshotProvider(program, 250)
            record = run_injection(
                program, provider.golden, spec, snapshots=provider
            )
            assert record.warm_start_cycles_skipped > 0
            # Still armed at HALT, so it can never converge: simulated.
            assert record.early_terminated_cycle is None
        assert record == cold
        assert not record.activated
        assert record.idld_latency is None
        assert record.outcome is OutcomeClass.BENIGN
        assert record.final_cycle == golden.cycles


class TestCampaign:
    def test_campaign_shape(self, small_campaign, fast_suite):
        runs_per = 8
        expected = len(fast_suite) * len(PRIMARY_MODELS) * runs_per
        assert len(small_campaign.results) == expected
        assert set(small_campaign.benchmarks) == set(fast_suite)

    def test_campaign_deterministic(self, fast_suite):
        sub = {"sha": fast_suite["sha"]}
        a = run_campaign(sub, runs_per_model=3, seed=77)
        b = run_campaign(sub, runs_per_model=3, seed=77)
        assert [r.outcome for r in a.results] == [r.outcome for r in b.results]
        assert [r.spec for r in a.results] == [r.spec for r in b.results]

    def test_most_injections_activate(self, small_campaign):
        activated = sum(1 for r in small_campaign.results if r.activated)
        assert activated / len(small_campaign.results) > 0.95

    def test_idld_detects_all_activated(self, small_campaign):
        for record in small_campaign.results:
            if record.activated:
                assert record.idld_detected, record.spec.describe()

    def test_coverage_keys_and_ranges(self, small_campaign):
        coverage = small_campaign.coverage()
        assert set(coverage) == {
            "idld", "end_of_test", "bv", "end_of_test+bv", "bv_first",
        }
        for value in coverage.values():
            assert 0.0 <= value <= 1.0

    def test_idld_coverage_is_total(self, small_campaign):
        assert small_campaign.coverage()["idld"] == 1.0

    def test_end_of_test_misses_masked(self, small_campaign):
        coverage = small_campaign.coverage()
        masked_fraction = small_campaign.masked_fraction()
        assert coverage["end_of_test"] == pytest.approx(1 - masked_fraction, abs=0.05)

    def test_masked_fraction_bounds(self, small_campaign):
        for bench in small_campaign.benchmarks:
            for model in PRIMARY_MODELS:
                fraction = small_campaign.masked_fraction(bench, model)
                assert 0.0 <= fraction <= 1.0

    def test_leakage_masks_most(self, small_campaign):
        """The paper's headline ordering: leakage is the most maskable."""
        leak = small_campaign.masked_fraction(model=BugModel.LEAKAGE)
        dup = small_campaign.masked_fraction(model=BugModel.DUPLICATION)
        assert leak > dup

    def test_manifestation_latencies_nonnegative(self, small_campaign):
        for masked_side in (False, True):
            for latency in small_campaign.manifestation_latencies(masked_side):
                assert latency >= 0

    def test_outcome_breakdown_sums(self, small_campaign):
        for bench in small_campaign.benchmarks:
            counts = small_campaign.outcome_breakdown(bench)
            control_signal_runs = len(
                [r for r in small_campaign.of(bench)
                 if r.spec.model in (BugModel.DUPLICATION, BugModel.LEAKAGE)]
            )
            assert sum(counts.values()) == control_signal_runs

    def test_detection_latency_lists(self, small_campaign):
        idld = small_campaign.detection_latencies("idld")
        bv = small_campaign.detection_latencies("bv")
        assert idld and all(l >= 0 for l in idld)
        assert all(l >= 0 for l in bv)

    def test_persistence_only_over_masked(self, small_campaign):
        fraction = small_campaign.persistence_fraction()
        assert 0.0 <= fraction <= 1.0

    def test_of_filters(self, small_campaign):
        rows = small_campaign.of("sha", BugModel.LEAKAGE)
        assert all(
            r.benchmark == "sha" and r.spec.model is BugModel.LEAKAGE
            for r in rows
        )
