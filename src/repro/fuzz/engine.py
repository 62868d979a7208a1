"""The coverage-guided fuzzing campaign driver.

Execution model — generations with a deterministic barrier:

* The driver schedules a fixed-size **batch** of tasks at a time. Every
  task's genome is derived *before* execution from (master seed, global
  execution index) plus the corpus as of the last batch boundary, so the
  schedule is a pure function of the seed and past results.
* Batches execute on the PR-1 :mod:`repro.exec` backends (Serial or
  ProcessPool) through the pluggable-runner hook, so ``--jobs`` changes
  wall-clock only: results are collected per batch and folded into the
  coverage map / corpus **in canonical index order**, making the whole
  campaign bit-identical for any worker count.
* Completed evaluations append to the same sealed log as campaign
  checkpoints (:class:`~repro.exec.durability.SealedLog`: CRC-sealed
  lines, single-writer lock, torn-tail tolerant) through the campaign's
  :class:`~repro.exec.engine.RunDriver`; only the record codec below is
  fuzz-specific. ``--resume`` replays recorded results through the
  driver instead of re-simulating them, which reconstructs the exact
  corpus/coverage state deterministically.

Any oracle failure is deduplicated by (failure tuple, coverage signature),
minimized by the greedy shrinker, and written out as a self-contained
repro artifact.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bugs.models import BugSpec
from repro.core.config import CoreConfig
from repro.exec.backends import Backend, ExecutionContext, SerialBackend
from repro.exec.checkpoint import spec_to_dict
from repro.exec.durability import (
    FORMAT_VERSION,
    SealedLog,
    load_sealed_log,
    manifest_identity,
)
from repro.exec.engine import RunDriver
from repro.exec.progress import ProgressObserver
from repro.exec.resilience import TaskFailure
from repro.fuzz.artifacts import ReproArtifact, save_artifact
from repro.fuzz.coverage import CoverageMap
from repro.fuzz.genome import (
    ProgramGenome,
    build_program,
    mutate,
    seed_genome,
    splice,
)
from repro.fuzz.oracle import OracleReport, evaluate
from repro.fuzz.shrink import shrink

#: Domain separator for fuzz seed derivation (independent of the campaign
#: engine's namespace); bump if the scheduling scheme ever changes.
FUZZ_SEED_NAMESPACE = "idld-fuzz-v1"


def derive_fuzz_seed(master_seed: int, index: int) -> int:
    """Stable per-execution seed (hash, not Python's randomized hash)."""
    key = f"{FUZZ_SEED_NAMESPACE}:{master_seed}:{index}"
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


#: Size of freshly-seeded genomes (``seed_genome`` keywords); the fuzz
#: manifest records them as ``limits``.
SEED_LIMITS = {
    "max_blocks": 5, "block_len": 8, "max_iters": 8, "data_words": 24,
}

#: Unique failures minimized (and written out) per campaign; later ones
#: still count in ``failure_runs``.
MAX_FINDINGS = 20


@dataclass(frozen=True)
class FuzzTask:
    """One scheduled oracle evaluation (picklable; ships to workers).

    ``bug`` is normally None (the fuzzer hunts for *real* core/checker
    bugs); campaigns armed with a known BugSpec exercise the oracle →
    shrinker → artifact loop end-to-end and seed the failing half of the
    regression corpus.
    """

    index: int
    genome: ProgramGenome
    origin: str  # "seed" | "mutant" | "splice"
    bug: Optional[BugSpec] = None

    @property
    def key(self) -> str:
        return str(self.index)


def run_fuzz_task(task: FuzzTask, context: ExecutionContext) -> OracleReport:
    """Module-level task runner (the backends' pluggable-runner target)."""
    program = build_program(task.genome, name=f"fuzz{task.index}")
    return evaluate(program, config=context.config, bug=task.bug)


@dataclass
class Finding:
    """One deduplicated oracle failure, after minimization."""

    signature: str
    failures: Tuple[str, ...]
    first_index: int
    genome: ProgramGenome
    report: OracleReport
    artifact_path: Optional[str] = None


@dataclass
class CorpusEntry:
    """One interesting (novel-coverage) input kept for future mutation,
    with the verdict its evaluation recorded."""

    index: int
    genome: ProgramGenome
    origin: str
    report: OracleReport


def failure_signature(report: OracleReport) -> str:
    """Dedup key: the failure tuple plus the run's coverage signature."""
    payload = json.dumps([list(report.failures), list(report.coverage)])
    return hashlib.blake2b(payload.encode(), digest_size=6).hexdigest()


# -- checkpointing -----------------------------------------------------------


def _result_from_record(record: Dict[str, object]) -> OracleReport:
    return OracleReport.from_record(record)


class FuzzCheckpoint(SealedLog):
    """The fuzz codec over a :class:`~repro.exec.durability.SealedLog`:
    one ``eval`` record per evaluation and one ``eval-failure`` record per
    quarantined one, after a ``fuzz-manifest``."""

    def write_result(self, task: FuzzTask, result: OracleReport) -> None:
        self.append(dict(result.to_record(), type="eval", index=task.index))

    def write_failure(self, task: FuzzTask, failure: TaskFailure) -> None:
        self.append(
            {
                "type": "eval-failure",
                "index": task.index,
                "failure": failure.to_record(),
            }
        )


def _fuzz_manifest(
    seed: int,
    batch: int,
    config: CoreConfig,
    bug: Optional[BugSpec],
) -> Dict[str, object]:
    record = {
        "type": "fuzz-manifest",
        "version": FORMAT_VERSION,
        "seed": seed,
        "batch": batch,
        "limits": dict(SEED_LIMITS),
        "config_digest": config.digest(),
        "bug": spec_to_dict(bug) if bug is not None else None,
    }
    record["identity"] = manifest_identity(record)
    return record


def load_fuzz_checkpoint_full(
    path: str,
) -> Tuple[
    Dict[str, object], Dict[int, OracleReport], Dict[int, TaskFailure]
]:
    """Load manifest, recorded results and quarantined evaluations.

    Integrity checks and deduplication are
    :func:`~repro.exec.durability.load_sealed_log`'s (a later ``eval``
    record for an index supersedes its ``eval-failure`` record: a retry
    eventually succeeded)."""
    manifest, done, failures = load_sealed_log(path, "fuzz-manifest")
    return (
        manifest,
        {index: _result_from_record(record) for index, record in done.items()},
        {
            index: TaskFailure.from_record(record["failure"])
            for index, record in failures.items()
        },
    )


# -- the campaign ------------------------------------------------------------


class FuzzCampaign:
    """Holds the evolving corpus/coverage state across batches, and is
    what :func:`run_fuzz` returns (and the CLI reports)."""

    def __init__(
        self,
        seed: int,
        budget: int,
        config: Optional[CoreConfig] = None,
        batch: int = 32,
        shrink_budget: int = 250,
        artifacts_dir: Optional[str] = None,
        bug: Optional[BugSpec] = None,
    ) -> None:
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        self.seed = seed
        self.budget = budget
        self.batch = batch
        self.config = config or CoreConfig()
        self.shrink_budget = shrink_budget
        self.artifacts_dir = artifacts_dir
        self.bug = bug
        self.coverage = CoverageMap()
        self.corpus: List[CorpusEntry] = []
        self.findings: List[Finding] = []
        self._seen_signatures: Dict[str, int] = {}
        self.failure_runs = 0
        # Set by run_fuzz when the run ends.
        self.executed = 0
        self.restored = 0
        self.elapsed_s = 0.0
        #: Evaluations the execution layer quarantined (index -> TaskFailure);
        #: excluded from coverage/corpus/findings, reported so a fuzz run with
        #: harness-level casualties is visibly incomplete.
        self.task_failures: Dict[int, TaskFailure] = {}

    @property
    def quarantined(self) -> int:
        return len(self.task_failures)

    # -- scheduling ---------------------------------------------------------

    def schedule(self, index: int) -> FuzzTask:
        """Derive the genome for execution ``index`` from the corpus as of
        the last batch barrier (pure function of seed + past results)."""
        rng = random.Random(derive_fuzz_seed(self.seed, index))
        if not self.corpus:
            origin = "seed"
            genome = seed_genome(rng, **SEED_LIMITS)
        else:
            roll = rng.random()
            if roll < 0.15:
                origin = "seed"
                genome = seed_genome(rng, **SEED_LIMITS)
            elif roll < 0.40 and len(self.corpus) >= 2:
                origin = "splice"
                left = rng.choice(self.corpus).genome
                right = rng.choice(self.corpus).genome
                genome = splice(rng, left, right)
            else:
                origin = "mutant"
                parent = rng.choice(self.corpus).genome
                genome = mutate(rng, parent, rounds=rng.randint(1, 3))
        return FuzzTask(
            index=index, genome=genome, origin=origin, bug=self.bug
        )

    # -- state folding ------------------------------------------------------

    def absorb(self, task: FuzzTask, report: OracleReport) -> None:
        """Fold one verdict into coverage/corpus/findings (canonical order)."""
        if self.coverage.add(report.coverage):
            self.corpus.append(
                CorpusEntry(task.index, task.genome, task.origin, report)
            )
        if report.ok:
            return
        self.failure_runs += 1
        signature = failure_signature(report)
        if signature in self._seen_signatures:
            return
        self._seen_signatures[signature] = task.index
        if len(self.findings) >= MAX_FINDINGS:
            return
        self.findings.append(self._minimize(signature, task, report))

    def _minimize(
        self, signature: str, task: FuzzTask, report: OracleReport
    ) -> Finding:
        def oracle(genome: ProgramGenome) -> OracleReport:
            return evaluate(
                build_program(genome), config=self.config, bug=self.bug
            )

        shrunk = shrink(
            task.genome, report.failures, oracle, budget=self.shrink_budget
        )
        finding = Finding(
            signature=signature,
            failures=report.failures,
            first_index=task.index,
            genome=shrunk.genome,
            report=shrunk.report,
        )
        if self.artifacts_dir is not None:
            artifact = ReproArtifact(
                name="fail",
                genome=shrunk.genome,
                config=self.config,
                verdict=shrunk.report,
                bug=self.bug,
                seed=self.seed,
                origin=f"fuzz:{task.origin}@{task.index}",
            )
            finding.artifact_path = save_artifact(artifact, self.artifacts_dir)
        return finding

    def save_corpus(self, directory: str) -> List[str]:
        """Write every corpus entry as a repro artifact of the verdict its
        evaluation recorded (nothing is re-simulated)."""
        return [
            save_artifact(
                ReproArtifact(
                    name="cov",
                    genome=entry.genome,
                    config=self.config,
                    verdict=entry.report,
                    bug=self.bug,
                    seed=self.seed,
                    origin=f"fuzz:{entry.origin}@{entry.index}",
                ),
                directory,
            )
            for entry in self.corpus
        ]

    # -- reporting ----------------------------------------------------------

    def report_lines(self) -> List[str]:
        """The deterministic coverage report (timing deliberately absent,
        so ``--jobs N`` output is comparable line-for-line)."""
        lines = [
            f"fuzz: seed={self.seed} budget={self.budget} batch={self.batch}",
            f"executions: {self.executed + self.restored} "
            f"({self.restored} restored from checkpoint)",
            f"coverage: {len(self.coverage)} buckets over "
            f"{len(self.coverage.by_feature())} features",
        ]
        for family, count in sorted(self.coverage.by_feature().items()):
            lines.append(f"  {family:<14} {count} buckets")
        lines.append(f"corpus: {len(self.corpus)} interesting inputs")
        if self.task_failures:
            kinds: Dict[str, int] = {}
            for failure in self.task_failures.values():
                kinds[failure.kind] = kinds.get(failure.kind, 0) + 1
            detail = ", ".join(
                f"{kinds[k]} {k}" for k in sorted(kinds)
            )
            lines.append(
                f"quarantined: {self.quarantined} evaluations ({detail}) "
                "-- excluded from coverage/corpus"
            )
        lines.append(
            f"failures: {self.failure_runs} runs, "
            f"{len(self.findings)} unique findings"
        )
        for finding in self.findings:
            lines.append(
                f"  [{finding.signature}] {'+'.join(finding.failures)} "
                f"first@{finding.first_index}"
                + (
                    f" -> {finding.artifact_path}"
                    if finding.artifact_path
                    else ""
                )
            )
        return lines


def run_fuzz(
    seed: int = 1,
    budget: int = 500,
    config: Optional[CoreConfig] = None,
    backend: Optional[Backend] = None,
    batch: int = 32,
    shrink_budget: int = 250,
    artifacts_dir: Optional[str] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    observers: Sequence[ProgressObserver] = (),
    save_corpus_dir: Optional[str] = None,
    bug: Optional[BugSpec] = None,
    checkpoint_fsync: bool = False,
) -> FuzzCampaign:
    """Run one coverage-guided differential fuzzing campaign.

    Args:
        seed: Master seed; every scheduling decision derives from it.
        budget: Total oracle evaluations to schedule (shrinking is extra).
        config: Core configuration under test (paper defaults when None).
        backend: Execution backend (:class:`SerialBackend` when None);
            results are bit-identical for any backend/worker count.
        batch: Generation size — the corpus-update barrier. Part of the
            campaign identity: changing it changes the schedule.
        shrink_budget: Max oracle evaluations per finding minimization.
        artifacts_dir: Where failing repro artifacts are written.
        checkpoint_path: Append each completed evaluation to this JSONL.
        resume: Load ``checkpoint_path`` first; recorded evaluations are
            replayed through the driver instead of re-simulated.
        observers: Progress-event callables.
        save_corpus_dir: If set, dump the final corpus as artifacts.
        bug: Optional armed BugSpec applied to every evaluation — exercises
            the oracle/shrinker/artifact loop against a known-bad core.
        checkpoint_fsync: ``os.fsync`` every checkpoint record.

    Returns:
        The :class:`FuzzCampaign` (coverage map, corpus, findings), with
        ``executed``, ``restored``, ``elapsed_s`` and ``task_failures``
        set.

    Fault tolerance: under a quarantining policy (the fuzz CLI's default),
    an evaluation the execution layer gives up on (exception / timeout /
    worker crash after retries) lands in ``FuzzCampaign.task_failures``
    instead of aborting the campaign, is checkpointed as an
    ``eval-failure`` record (so a resume skips it), and contributes nothing
    to coverage/corpus — the downstream schedule evolves exactly as if the
    run had produced no novelty, which keeps resume and fresh runs
    consistent with each other. The default backend runs under
    :data:`~repro.exec.resilience.FAIL_FAST` and raises instead.

    A stop is an exception like any other (the CLI raises
    :class:`KeyboardInterrupt` on SIGINT and SIGTERM) and saves no corpus;
    a resume replays the checkpointed part of the stopped generation, so
    the schedule evolves exactly as in an uninterrupted run.
    """
    campaign = FuzzCampaign(
        seed=seed,
        budget=budget,
        config=config,
        batch=batch,
        shrink_budget=shrink_budget,
        artifacts_dir=artifacts_dir,
        bug=bug,
    )
    backend = backend if backend is not None else SerialBackend()
    context = ExecutionContext(
        programs={}, config=campaign.config, runner=run_fuzz_task
    )
    with RunDriver(
        checkpoint_path,
        lambda: _fuzz_manifest(seed, batch, campaign.config, bug),
        FuzzCheckpoint,
        load_fuzz_checkpoint_full,
        key=attrgetter("index"),
        resume=resume,
        fsync=checkpoint_fsync,
        observers=observers,
        total=budget,
    ) as driver:
        restored, quarantined = driver.done, dict(driver.failures)
        index = 0
        while index < budget:
            size = min(batch, budget - index)
            tasks = [campaign.schedule(index + i) for i in range(size)]
            results: Dict[int, OracleReport] = {
                task.index: restored[task.index]
                for task in tasks
                if task.index in restored
            }
            for task, outcome in driver.run(backend, tasks, context):
                if isinstance(outcome, TaskFailure):
                    quarantined[task.index] = outcome
                else:
                    results[task.index] = outcome
            by_index = {task.index: task for task in tasks}
            for i in sorted(results):
                campaign.absorb(by_index[i], results[i])
            index += size

    if save_corpus_dir is not None:
        campaign.save_corpus(save_corpus_dir)

    campaign.executed = driver.executed
    campaign.restored = driver.skipped
    campaign.elapsed_s = time.monotonic() - driver.started
    campaign.task_failures = dict(sorted(quarantined.items()))
    return campaign
