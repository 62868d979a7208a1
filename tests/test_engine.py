"""Tests for the campaign execution engine (repro.exec).

The load-bearing properties: seed derivation is stable, results are
bit-identical across backends and worker counts, and a killed-then-resumed
campaign equals an uninterrupted one.
"""

import json

import pytest

from repro.analysis.export import (
    append_csv,
    campaign_from_checkpoint,
    to_csv,
    to_json,
    write_csv,
)
from repro.analysis.outcomes import OutcomeClass
from repro.bugs.campaign import CampaignResult, InjectionResult, run_campaign
from repro.bugs.models import BugModel, BugSpec, PRIMARY_MODELS
from repro.core.rrs.signals import ArrayName, SignalKind
from repro.exec.backends import ProcessPoolBackend, SerialBackend
from repro.exec.checkpoint import (
    CheckpointError,
    load_checkpoint_full,
    result_from_dict,
    result_to_dict,
)
from repro.exec.engine import run_engine
from repro.exec.tasks import derive_seed, generate_tasks


@pytest.fixture(scope="module")
def sha_only(fast_suite):
    return {"sha": fast_suite["sha"]}


@pytest.fixture(scope="module")
def two_bench(fast_suite):
    return {"sha": fast_suite["sha"], "bitcount": fast_suite["bitcount"]}


class TestSeedDerivation:
    def test_stable_across_calls(self):
        a = derive_seed(1, "sha", BugModel.LEAKAGE, 0)
        b = derive_seed(1, "sha", BugModel.LEAKAGE, 0)
        assert a == b

    def test_distinct_per_coordinate(self):
        seeds = {
            derive_seed(s, bench, model, run)
            for s in (1, 2)
            for bench in ("sha", "qsort")
            for model in PRIMARY_MODELS
            for run in range(4)
        }
        assert len(seeds) == 2 * 2 * len(PRIMARY_MODELS) * 4

    def test_independent_of_task_position(self):
        """The seed depends on (master, bench, model, run) only — not on
        where the task lands in the campaign order."""
        small = generate_tasks(["sha"], 2, PRIMARY_MODELS, seed=9)
        large = generate_tasks(["qsort", "sha"], 5, PRIMARY_MODELS, seed=9)
        by_key = {t.key: t for t in large}
        for task in small:
            assert by_key[task.key].derived_seed == task.derived_seed


class TestTaskGeneration:
    def test_canonical_order_and_count(self):
        tasks = generate_tasks(["a", "b"], 3, PRIMARY_MODELS, seed=1)
        assert len(tasks) == 2 * len(PRIMARY_MODELS) * 3
        assert [t.index for t in tasks] == list(range(len(tasks)))
        assert tasks[0].benchmark == "a" and tasks[-1].benchmark == "b"
        assert len({t.key for t in tasks}) == len(tasks)

    def test_zero_max_attempts_rejected(self):
        with pytest.raises(ValueError, match="max_attempts"):
            generate_tasks(["a"], 1, PRIMARY_MODELS, seed=1, max_attempts=0)

    def test_run_campaign_guards_max_attempts(self, sha_only):
        with pytest.raises(ValueError, match="max_attempts"):
            run_campaign(sha_only, runs_per_model=1, max_attempts=0)


class TestBackendDeterminism:
    def test_identical_csv_across_backends(self, two_bench):
        """Same master seed => byte-identical exports for serial and for
        process pools of 2 and 4 workers."""
        csvs = [
            to_csv(run_engine(two_bench, 2, seed=123, backend=backend))
            for backend in (
                SerialBackend(),
                ProcessPoolBackend(jobs=2),
                ProcessPoolBackend(jobs=4),
            )
        ]
        assert csvs[0] == csvs[1] == csvs[2]

    def test_engine_matches_run_campaign(self, sha_only):
        facade = run_campaign(sha_only, runs_per_model=2, seed=55)
        direct = run_engine(sha_only, 2, seed=55)
        assert to_csv(facade) == to_csv(direct)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(jobs=0)

    def test_more_jobs_than_tasks(self, sha_only):
        """A pool wider than the task list (idle workers) completes every
        task exactly once and matches the serial results."""
        tasks = generate_tasks(["sha"], 1, PRIMARY_MODELS, seed=77)
        serial = run_engine(sha_only, 1, seed=77)
        wide = run_engine(
            sha_only, 1, seed=77, backend=ProcessPoolBackend(jobs=16)
        )
        assert len(wide.results) == len(tasks)
        assert to_csv(wide) == to_csv(serial)

    def test_single_worker_pool_matches_serial(self, sha_only):
        """jobs=1 through the process pool (worker init, pickling, IPC) is
        byte-identical to the in-process serial backend."""
        serial = run_engine(sha_only, 2, seed=31, backend=SerialBackend())
        pool = run_engine(
            sha_only, 2, seed=31, backend=ProcessPoolBackend(jobs=1)
        )
        assert to_csv(pool) == to_csv(serial)
        assert to_json(pool) == to_json(serial)


class TestCheckpoint:
    def test_result_dict_roundtrip(self, small_campaign):
        for record in small_campaign.results[:20]:
            assert result_from_dict(result_to_dict(record)) == record

    def test_checkpoint_file_layout(self, sha_only, tmp_path):
        path = str(tmp_path / "run.jsonl")
        campaign = run_engine(sha_only, 2, seed=7, checkpoint_path=path)
        lines = open(path).read().splitlines()
        manifest = json.loads(lines[0])
        assert manifest["type"] == "manifest" and manifest["seed"] == 7
        assert manifest["goldens"]["sha"]["cycles"] > 0
        assert len(lines) - 1 == len(campaign.results)
        assert all(json.loads(l)["type"] == "result" for l in lines[1:])

    def test_campaign_from_checkpoint(self, sha_only, tmp_path):
        path = str(tmp_path / "run.jsonl")
        campaign = run_engine(sha_only, 2, seed=7, checkpoint_path=path)
        rebuilt = campaign_from_checkpoint(path)
        assert to_csv(rebuilt) == to_csv(campaign)
        assert to_json(rebuilt) == to_json(campaign)

    def test_mismatched_seed_refused(self, sha_only, tmp_path):
        path = str(tmp_path / "run.jsonl")
        run_engine(sha_only, 1, seed=7, checkpoint_path=path)
        with pytest.raises(CheckpointError, match="seed"):
            run_engine(
                sha_only, 1, seed=8, checkpoint_path=path, resume=True
            )

    def test_corrupt_middle_record_refused(self, sha_only, tmp_path):
        path = str(tmp_path / "run.jsonl")
        run_engine(sha_only, 2, seed=7, checkpoint_path=path)
        lines = open(path).read().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint_full(path)


class TestResume:
    def _truncate(self, src, dst, keep_results, torn=False):
        lines = open(src).read().splitlines()
        kept = lines[: 1 + keep_results]
        with open(dst, "w") as handle:
            handle.write("\n".join(kept) + "\n")
            if torn:
                tail = lines[1 + keep_results]
                handle.write(tail[: len(tail) // 2])

    def test_killed_then_resumed_equals_uninterrupted(self, sha_only, tmp_path):
        full_path = str(tmp_path / "full.jsonl")
        part_path = str(tmp_path / "part.jsonl")
        full = run_engine(sha_only, 3, seed=11, checkpoint_path=full_path)
        # Simulate a mid-campaign kill: 4 complete records + a torn write.
        self._truncate(full_path, part_path, keep_results=4, torn=True)
        events = []
        resumed = run_engine(
            sha_only,
            3,
            seed=11,
            checkpoint_path=part_path,
            resume=True,
            backend=ProcessPoolBackend(jobs=2),
            observers=[events.append],
        )
        assert to_csv(resumed) == to_csv(full)
        assert events[0].skipped == 4
        # The resumed checkpoint file is itself complete and well-formed.
        assert to_csv(campaign_from_checkpoint(part_path)) == to_csv(full)

    def test_resume_from_empty_checkpoint_rejected(self, sha_only, tmp_path):
        """A zero-byte checkpoint (crash before the manifest fsync landed)
        is an explicit error, not a silent from-scratch restart."""
        path = str(tmp_path / "empty.jsonl")
        open(path, "w").close()
        with pytest.raises(CheckpointError, match="empty"):
            run_engine(sha_only, 2, seed=11, checkpoint_path=path, resume=True)

    def test_resume_from_manifest_only_equals_uninterrupted(
        self, sha_only, tmp_path
    ):
        """A checkpoint holding only the manifest (killed before the first
        result) resumes to exactly the uninterrupted campaign, skipping
        nothing."""
        full_path = str(tmp_path / "full.jsonl")
        part_path = str(tmp_path / "manifest-only.jsonl")
        full = run_engine(sha_only, 3, seed=11, checkpoint_path=full_path)
        self._truncate(full_path, part_path, keep_results=0)
        events = []
        resumed = run_engine(
            sha_only,
            3,
            seed=11,
            checkpoint_path=part_path,
            resume=True,
            observers=[events.append],
        )
        assert to_csv(resumed) == to_csv(full)
        assert events[0].skipped == 0
        assert to_csv(campaign_from_checkpoint(part_path)) == to_csv(full)

    def test_resume_skips_completed_tasks(self, sha_only, tmp_path):
        full_path = str(tmp_path / "full.jsonl")
        part_path = str(tmp_path / "part.jsonl")
        run_engine(sha_only, 2, seed=3, checkpoint_path=full_path)
        self._truncate(full_path, part_path, keep_results=5)
        events = []
        run_engine(
            sha_only,
            2,
            seed=3,
            checkpoint_path=part_path,
            resume=True,
            observers=[events.append],
        )
        executed = events[-1].done - events[-1].skipped
        assert events[-1].skipped == 5
        assert executed == 6 - 5

    def test_resume_requires_checkpoint_path(self, sha_only):
        with pytest.raises(ValueError, match="checkpoint_path"):
            run_engine(sha_only, 1, resume=True)


class TestProgress:
    def test_event_stream_shape(self, sha_only):
        events = []
        campaign = run_engine(sha_only, 2, seed=2, observers=[events.append])
        assert len(events) == len(campaign.results)
        dones = [e.done for e in events]
        assert dones == sorted(dones) and dones[-1] == events[-1].total
        final = events[-1]
        assert final.remaining == 0
        assert final.throughput > 0
        assert final.per_benchmark["sha"] == (6, 6)
        assert final.benchmark_eta_s("sha") == 0.0


class TestNeverActivated:
    def test_counted_not_dropped(self):
        campaign = CampaignResult()
        spec = BugSpec(
            BugModel.LEAKAGE, 10, array=ArrayName.RAT,
            kind=SignalKind.WRITE_ENABLE,
        )
        for activated in (True, False, False):
            campaign.results.append(
                InjectionResult(
                    benchmark="sha",
                    spec=spec,
                    activated=activated,
                    activation_cycle=5 if activated else None,
                    outcome=OutcomeClass.BENIGN,
                    manifestation_cycle=None,
                    final_cycle=100,
                    persists=None,
                    idld_cycle=None,
                    bv_cycle=None,
                    counter_cycle=None,
                    eot_detected=False,
                )
            )
        assert campaign.never_activated == 2

    def test_small_campaign_reports(self, small_campaign):
        inactive = sum(1 for r in small_campaign.results if not r.activated)
        assert small_campaign.never_activated == inactive


class TestIncrementalCsv:
    def test_append_matches_bulk_write(self, sha_only, tmp_path):
        campaign = run_engine(sha_only, 2, seed=4)
        bulk = str(tmp_path / "bulk.csv")
        incr = str(tmp_path / "incr.csv")
        write_csv(campaign, bulk)
        append_csv(campaign.results[:2], incr)
        append_csv(campaign.results[2:], incr)
        assert open(incr).read() == open(bulk).read()
