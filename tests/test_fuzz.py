"""Tests for the coverage-guided differential fuzzer (repro.fuzz).

The load-bearing properties: genomes always build halting programs and
roundtrip through JSON; the triple oracle passes on the bug-free core and
flips under an armed bug; the shrinker preserves the exact failure tuple;
campaigns are bit-identical for any worker count; and a killed-then-resumed
campaign equals an uninterrupted one.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bugs.models import (
    BugModel,
    BugSpec,
    DUPLICATION_SIGNALS,
    LEAKAGE_SIGNALS,
)
from repro.core.config import CoreConfig
from repro.exec.backends import ProcessPoolBackend, SerialBackend
from repro.exec.checkpoint import CheckpointError
from repro.fuzz.artifacts import (
    ArtifactError,
    ReproArtifact,
    Verdict,
    config_digest,
    config_from_dict,
    config_to_dict,
    load_artifact,
    replay_artifact,
    save_artifact,
)
from repro.fuzz.coverage import CoverageMap, log_bucket
from repro.fuzz.engine import (
    FuzzCampaign,
    derive_fuzz_seed,
    load_fuzz_checkpoint_full,
    run_fuzz,
)
from repro.fuzz.genome import (
    MAX_BLOCKS,
    MAX_LOOP_ITERS,
    MAX_OPS_PER_BLOCK,
    build_program,
    genome_from_dict,
    genome_to_dict,
    mutate,
    seed_genome,
    splice,
)
from repro.fuzz.oracle import evaluate
from repro.fuzz.shrink import shrink
from repro.isa.semantics import reference_run


def _leak_spec(cycle=80):
    array, kind = LEAKAGE_SIGNALS[0]
    return BugSpec(
        model=BugModel.LEAKAGE, inject_cycle=cycle, array=array, kind=kind
    )


def _dup_spec(cycle=80):
    array, kind = DUPLICATION_SIGNALS[0]
    return BugSpec(
        model=BugModel.DUPLICATION, inject_cycle=cycle, array=array, kind=kind
    )


class TestGenome:
    def test_build_is_deterministic(self):
        genome = seed_genome(random.Random(3))
        a = build_program(genome, name="x")
        b = build_program(genome, name="x")
        assert [str(i) for i in a.instructions] == [
            str(i) for i in b.instructions
        ]

    def test_json_roundtrip(self):
        genome = seed_genome(random.Random(9))
        data = json.loads(json.dumps(genome_to_dict(genome)))
        assert genome_from_dict(data) == genome

    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=30, deadline=None)
    def test_seeded_genomes_halt(self, seed):
        """Every genome builds a program the reference interpreter runs to
        completion (counted loops guarantee termination)."""
        genome = seed_genome(random.Random(seed))
        output, _, steps = reference_run(build_program(genome))
        assert steps > 0

    @given(
        seed=st.integers(min_value=0, max_value=5_000),
        rounds=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=30, deadline=None)
    def test_mutants_respect_bounds_and_halt(self, seed, rounds):
        rng = random.Random(seed)
        genome = mutate(rng, seed_genome(rng), rounds=rounds)
        assert 1 <= len(genome.blocks) <= MAX_BLOCKS
        for block in genome.blocks:
            assert 1 <= len(block.ops) <= MAX_OPS_PER_BLOCK
            assert 1 <= block.iters <= MAX_LOOP_ITERS
        reference_run(build_program(genome))  # must not hang or crash

    @given(
        left=st.integers(min_value=0, max_value=1_000),
        right=st.integers(min_value=0, max_value=1_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_splice_respects_bounds_and_halts(self, left, right):
        rng = random.Random(left * 7919 + right)
        child = splice(
            rng,
            seed_genome(random.Random(left)),
            seed_genome(random.Random(right)),
        )
        assert 1 <= len(child.blocks) <= MAX_BLOCKS
        reference_run(build_program(child))


class TestCoverage:
    def test_log_bucket_never_collides_across_ranges(self):
        """Distinct bucket per power-of-two range: exact 0/1/2, then
        {3}, {4..7}, {8..15}, ..."""
        assert [log_bucket(v) for v in (0, 1, 2, 3, 4, 7, 8, 15, 16)] == [
            0, 1, 2, 3, 4, 4, 5, 5, 6,
        ]

    def test_map_reports_only_fresh_keys(self):
        cmap = CoverageMap()
        assert cmap.add(["b:1", "a:1"]) == ["a:1", "b:1"]
        assert cmap.add(["a:1", "c:2"]) == ["c:2"]
        assert len(cmap) == 3
        assert cmap.counts["a:1"] == 2
        assert cmap.by_feature() == {"a": 1, "b": 1, "c": 1}


class TestOracle:
    def test_clean_core_passes(self):
        genome = seed_genome(random.Random(1))
        report = evaluate(build_program(genome))
        assert report.ok
        assert report.failures == ()
        assert report.coverage  # probe produced buckets
        assert report.bug_activated is None

    def test_armed_leakage_flips_oracle(self):
        genome = seed_genome(random.Random(1))
        report = evaluate(build_program(genome), bug=_leak_spec())
        assert not report.ok
        assert "idld_detected" in report.failures
        assert report.bug_activated is not None

    def test_armed_duplication_flips_oracle(self):
        genome = seed_genome(random.Random(1))
        report = evaluate(build_program(genome), bug=_dup_spec())
        assert not report.ok
        assert "idld_detected" in report.failures

    def test_report_is_deterministic(self):
        genome = seed_genome(random.Random(8))
        program = build_program(genome)
        assert evaluate(program) == evaluate(program)


class TestShrink:
    def test_preserves_exact_failure_tuple(self):
        genome = seed_genome(random.Random(5))
        spec = _leak_spec()

        def oracle(g):
            return evaluate(build_program(g), bug=spec)

        baseline = oracle(genome)
        assert not baseline.ok
        result = shrink(genome, baseline.failures, oracle, budget=120)
        assert result.report.failures == baseline.failures
        assert len(result.genome.blocks) <= len(genome.blocks)
        assert result.evaluations <= 120

    def test_non_reproducing_input_returned_untouched(self):
        genome = seed_genome(random.Random(5))

        def oracle(g):
            return evaluate(build_program(g))  # passes: nothing to shrink

        result = shrink(genome, ("idld_detected",), oracle, budget=50)
        assert result.genome == genome
        assert result.evaluations == 1


class TestArtifacts:
    def test_config_roundtrip(self):
        config = CoreConfig(
            width=2, num_physical_regs=64, rob_entries=24,
            checkpoint_interval=8,
        )
        clone = config_from_dict(
            json.loads(json.dumps(config_to_dict(config)))
        )
        assert clone == config
        assert config_digest(clone) == config_digest(config)

    def test_artifact_roundtrip_and_replay(self, tmp_path):
        genome = seed_genome(random.Random(5))
        spec = _leak_spec()
        report = evaluate(build_program(genome), bug=spec)
        artifact = ReproArtifact(
            name="leak",
            genome=genome,
            config=CoreConfig(),
            verdict=Verdict.from_report(report),
            coverage=report.coverage,
            bug=spec,
            seed=5,
        )
        path = save_artifact(artifact, str(tmp_path))
        loaded = load_artifact(path)
        assert loaded.genome == genome
        assert loaded.bug == spec
        matches, replay = replay_artifact(loaded)
        assert matches
        assert replay.failures == report.failures

    def test_stale_verdict_fails_replay(self, tmp_path):
        genome = seed_genome(random.Random(6))
        report = evaluate(build_program(genome))
        wrong = Verdict(
            ok=False,
            failures=("idld_detected",),
            output_sha=report.output_sha,
            cycles=report.cycles,
            committed=report.committed,
        )
        artifact = ReproArtifact(
            name="stale",
            genome=genome,
            config=CoreConfig(),
            verdict=wrong,
            coverage=report.coverage,
        )
        loaded = load_artifact(save_artifact(artifact, str(tmp_path)))
        matches, _ = replay_artifact(loaded)
        assert not matches

    def test_malformed_files_rejected(self, tmp_path):
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{not json")
        with pytest.raises(ArtifactError):
            load_artifact(str(bad_json))
        wrong_format = tmp_path / "wrong.json"
        wrong_format.write_text(json.dumps({"format": "other"}))
        with pytest.raises(ArtifactError, match="not a fuzz repro"):
            load_artifact(str(wrong_format))


class TestFuzzEngine:
    def test_seed_derivation_stable(self):
        assert derive_fuzz_seed(1, 0) == derive_fuzz_seed(1, 0)
        assert derive_fuzz_seed(1, 0) != derive_fuzz_seed(1, 1)
        assert derive_fuzz_seed(1, 0) != derive_fuzz_seed(2, 0)

    def test_schedule_is_pure(self):
        a = FuzzCampaign(seed=4, budget=10)
        b = FuzzCampaign(seed=4, budget=10)
        for index in range(5):
            assert a.schedule(index).genome == b.schedule(index).genome

    def test_identical_results_across_backends(self):
        """The acceptance property: --jobs N is bit-identical to --jobs 1
        (same coverage map, same corpus, same report)."""
        serial = run_fuzz(seed=1, budget=24, batch=8)
        pooled = run_fuzz(
            seed=1, budget=24, batch=8, backend=ProcessPoolBackend(jobs=2)
        )
        assert serial.coverage.counts == pooled.coverage.counts
        assert [e.index for e in serial.corpus] == [
            e.index for e in pooled.corpus
        ]
        assert serial.report_lines() == pooled.report_lines()

    def test_killed_then_resumed_equals_uninterrupted(self, tmp_path):
        full_path = str(tmp_path / "full.jsonl")
        part_path = str(tmp_path / "part.jsonl")
        full = run_fuzz(seed=7, budget=20, batch=8, checkpoint_path=full_path)
        lines = open(full_path).read().splitlines()
        with open(part_path, "w") as handle:
            handle.write("\n".join(lines[:8]) + "\n")
            handle.write(lines[8][: len(lines[8]) // 2])  # torn write
        resumed = run_fuzz(
            seed=7, budget=20, batch=8, checkpoint_path=part_path, resume=True
        )
        assert resumed.restored == 7
        assert resumed.coverage.counts == full.coverage.counts
        # The resumed file is complete: a second resume re-simulates nothing.
        _, done, _ = load_fuzz_checkpoint_full(part_path)
        assert len(done) == 20

    def test_resume_rejects_mismatched_campaign(self, tmp_path):
        path = str(tmp_path / "fuzz.jsonl")
        run_fuzz(seed=1, budget=8, batch=4, checkpoint_path=path)
        with pytest.raises(CheckpointError, match="seed"):
            run_fuzz(seed=2, budget=8, batch=4, checkpoint_path=path, resume=True)
        with pytest.raises(CheckpointError, match="batch"):
            run_fuzz(seed=1, budget=8, batch=8, checkpoint_path=path, resume=True)

    def test_resume_from_empty_checkpoint_rejected(self, tmp_path):
        path = str(tmp_path / "empty.jsonl")
        open(path, "w").close()
        with pytest.raises(CheckpointError, match="empty"):
            run_fuzz(seed=1, budget=8, checkpoint_path=path, resume=True)

    def test_armed_campaign_finds_shrinks_and_emits_artifacts(self, tmp_path):
        """A campaign armed with a known bug must surface failures, dedup
        them by signature, and write minimized artifacts that replay to
        the recorded verdict — the whole loop, end to end."""
        summary = run_fuzz(
            seed=3,
            budget=6,
            batch=3,
            shrink_budget=40,
            artifacts_dir=str(tmp_path),
            bug=_leak_spec(cycle=60),
        )
        assert summary.failure_runs >= 1
        assert summary.findings
        signatures = [f.signature for f in summary.findings]
        assert len(signatures) == len(set(signatures))
        for finding in summary.findings:
            assert not finding.report.ok
            assert finding.report.failures == finding.failures
            loaded = load_artifact(finding.artifact_path)
            matches, _ = replay_artifact(loaded)
            assert matches


class TestFuzzCli:
    def test_smoke(self, capsys):
        from repro.cli import repro_main

        code = repro_main(
            ["fuzz", "--seed", "2", "--budget", "12", "--batch", "6",
             "--no-progress"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "coverage:" in out
        assert "corpus:" in out

    def test_jobs_flag_does_not_change_report(self, capsys):
        from repro.cli import repro_main

        repro_main(["fuzz", "--seed", "2", "--budget", "12", "--batch", "6",
                    "--no-progress"])
        serial_out = capsys.readouterr().out
        repro_main(["fuzz", "--seed", "2", "--budget", "12", "--batch", "6",
                    "--jobs", "2", "--no-progress"])
        pooled_out = capsys.readouterr().out
        strip = lambda s: [l for l in s.splitlines()
                           if not l.startswith("elapsed")]
        assert strip(serial_out) == strip(pooled_out)

    def test_replay_subcommand(self, tmp_path, capsys):
        from repro.cli import repro_main

        genome = seed_genome(random.Random(4))
        report = evaluate(build_program(genome))
        artifact = ReproArtifact(
            name="cov",
            genome=genome,
            config=CoreConfig(),
            verdict=Verdict.from_report(report),
            coverage=report.coverage,
        )
        path = save_artifact(artifact, str(tmp_path))
        assert repro_main(["fuzz", "--replay", path]) == 0
        assert "0 mismatches" in capsys.readouterr().out

    def test_unknown_subcommand(self, capsys):
        from repro.cli import repro_main

        assert repro_main(["frobnicate"]) == 2
