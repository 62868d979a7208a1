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
  lines, single-writer lock, torn-tail tolerant); only the record codec
  below is fuzz-specific. ``--resume`` replays recorded results through
  the driver instead of re-simulating them, which reconstructs the exact
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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bugs.models import BugSpec
from repro.core.config import CoreConfig
from repro.exec.backends import Backend, ExecutionContext, SerialBackend
from repro.exec.checkpoint import spec_to_dict
from repro.exec.durability import (
    CheckpointError,
    GracefulShutdown,
    SealedLog,
    load_sealed_log,
    manifest_identity,
)
from repro.exec.progress import ProgressEvent, ProgressObserver
from repro.exec.resilience import TaskFailure
from repro.fuzz.artifacts import (
    ReproArtifact,
    Verdict,
    config_digest,
    save_artifact,
)
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

#: Fuzz checkpoint format version this writer produces (v2: CRC-sealed
#: records + manifest identity hash, same scheme as campaign checkpoints).
FUZZ_CHECKPOINT_VERSION = 2

#: Versions the loader accepts.
FUZZ_SUPPORTED_VERSIONS = (2,)


def derive_fuzz_seed(master_seed: int, index: int) -> int:
    """Stable per-execution seed (hash, not Python's randomized hash)."""
    key = f"{FUZZ_SEED_NAMESPACE}:{master_seed}:{index}"
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class GeneratorLimits:
    """Size knobs for freshly-seeded genomes."""

    max_blocks: int = 5
    block_len: int = 8
    max_iters: int = 8
    data_words: int = 24


@dataclass(frozen=True)
class FuzzTask:
    """One scheduled oracle evaluation (picklable; ships to workers).

    ``bug`` is normally None (the fuzzer hunts for *real* core/checker
    bugs); campaigns armed with a known BugSpec exercise the oracle →
    shrinker → artifact loop end-to-end and seed the failing half of the
    regression corpus.
    """

    index: int
    derived_seed: int
    genome: ProgramGenome
    origin: str  # "seed" | "mutant" | "splice"
    bug: Optional[BugSpec] = None

    @property
    def key(self) -> str:
        return str(self.index)


@dataclass(frozen=True)
class FuzzResult:
    """What one evaluation sends back (plain data, picklable)."""

    index: int
    ok: bool
    failures: Tuple[str, ...]
    coverage: Tuple[str, ...]
    cycles: int
    committed: int
    output_sha: str


def run_fuzz_task(task: FuzzTask, context: ExecutionContext) -> FuzzResult:
    """Module-level task runner (the backends' pluggable-runner target)."""
    program = build_program(task.genome, name=f"fuzz{task.index}")
    report = evaluate(
        program,
        config=context.config,
        bug=task.bug,
        deadline=context.deadline,
    )
    return FuzzResult(
        index=task.index,
        ok=report.ok,
        failures=report.failures,
        coverage=report.coverage,
        cycles=report.cycles,
        committed=report.committed,
        output_sha=report.output_sha,
    )


@dataclass
class Finding:
    """One deduplicated oracle failure, after minimization."""

    signature: str
    failures: Tuple[str, ...]
    first_index: int
    genome: ProgramGenome
    report: OracleReport
    shrink_evaluations: int
    artifact_path: Optional[str] = None


@dataclass
class CorpusEntry:
    """One interesting (novel-coverage) input kept for future mutation."""

    index: int
    genome: ProgramGenome
    origin: str
    new_keys: Tuple[str, ...]
    coverage: Tuple[str, ...]
    ok: bool


@dataclass
class FuzzSummary:
    """Everything a fuzz campaign produced (and the CLI reports)."""

    seed: int
    budget: int
    batch: int
    executed: int
    restored: int
    coverage: CoverageMap = field(default_factory=CoverageMap)
    corpus: List[CorpusEntry] = field(default_factory=list)
    findings: List[Finding] = field(default_factory=list)
    failure_runs: int = 0
    elapsed_s: float = 0.0
    #: Evaluations the execution layer quarantined (index -> TaskFailure);
    #: excluded from coverage/corpus/findings, reported so a fuzz run with
    #: harness-level casualties is visibly incomplete.
    task_failures: Dict[int, TaskFailure] = field(default_factory=dict)

    @property
    def quarantined(self) -> int:
        return len(self.task_failures)

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


def failure_signature(
    failures: Tuple[str, ...], coverage: Tuple[str, ...]
) -> str:
    """Dedup key: the failure tuple plus the run's coverage signature."""
    payload = json.dumps([list(failures), list(coverage)])
    return hashlib.blake2b(payload.encode(), digest_size=6).hexdigest()


# -- checkpointing -----------------------------------------------------------


def _result_to_record(result: FuzzResult) -> Dict[str, object]:
    return {
        "type": "eval",
        "index": result.index,
        "ok": result.ok,
        "failures": list(result.failures),
        "coverage": list(result.coverage),
        "cycles": result.cycles,
        "committed": result.committed,
        "output_sha": result.output_sha,
    }


def _result_from_record(record: Dict[str, object]) -> FuzzResult:
    return FuzzResult(
        index=record["index"],
        ok=record["ok"],
        failures=tuple(record["failures"]),
        coverage=tuple(record["coverage"]),
        cycles=record["cycles"],
        committed=record["committed"],
        output_sha=record["output_sha"],
    )


def _fuzz_manifest(
    seed: int,
    batch: int,
    limits: GeneratorLimits,
    config: CoreConfig,
    bug: Optional[BugSpec],
) -> Dict[str, object]:
    record = {
        "type": "fuzz-manifest",
        "version": FUZZ_CHECKPOINT_VERSION,
        "seed": seed,
        "batch": batch,
        "limits": {
            "max_blocks": limits.max_blocks,
            "block_len": limits.block_len,
            "max_iters": limits.max_iters,
            "data_words": limits.data_words,
        },
        "config_digest": config_digest(config),
        "bug": spec_to_dict(bug) if bug is not None else None,
    }
    record["identity"] = manifest_identity(record)
    return record


def load_fuzz_checkpoint_full(
    path: str,
) -> Tuple[
    Dict[str, object], Dict[int, FuzzResult], Dict[int, TaskFailure]
]:
    """Load manifest, recorded results and quarantined evaluations.

    Integrity checks and deduplication are
    :func:`~repro.exec.durability.load_sealed_log`'s (a later ``eval``
    record for an index supersedes its ``eval-failure`` record: a retry
    eventually succeeded)."""
    manifest, done, failures = load_sealed_log(path)
    if manifest.get("type") != "fuzz-manifest":
        raise CheckpointError(
            f"{path}: not a fuzz checkpoint (got {manifest.get('type')!r})"
        )
    if manifest.get("version") not in FUZZ_SUPPORTED_VERSIONS:
        raise CheckpointError(
            f"{path}: unsupported fuzz checkpoint version "
            f"{manifest.get('version')!r}"
        )
    return (
        manifest,
        {index: _result_from_record(record) for index, record in done.items()},
        {
            index: TaskFailure.from_record(record["failure"])
            for index, record in failures.items()
        },
    )


def _verify_fuzz_manifest(
    manifest: Dict[str, object],
    expected: Dict[str, object],
    path: str,
) -> None:
    for key in ("seed", "batch", "limits", "config_digest", "bug"):
        if manifest.get(key) != expected[key]:
            raise CheckpointError(
                f"{path}: checkpoint {key}={manifest.get(key)!r} does not "
                f"match this campaign's {key}={expected[key]!r}; refusing "
                "to resume"
            )


# -- the campaign ------------------------------------------------------------


class FuzzCampaign:
    """Holds the evolving corpus/coverage state across batches."""

    def __init__(
        self,
        seed: int,
        budget: int,
        config: Optional[CoreConfig] = None,
        batch: int = 32,
        limits: GeneratorLimits = GeneratorLimits(),
        shrink_budget: int = 250,
        artifacts_dir: Optional[str] = None,
        max_findings: int = 20,
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
        self.limits = limits
        self.shrink_budget = shrink_budget
        self.artifacts_dir = artifacts_dir
        self.max_findings = max_findings
        self.bug = bug
        self.coverage = CoverageMap()
        self.corpus: List[CorpusEntry] = []
        self.findings: List[Finding] = []
        self._seen_signatures: Dict[str, int] = {}
        self.failure_runs = 0

    # -- scheduling ---------------------------------------------------------

    def schedule(self, index: int) -> FuzzTask:
        """Derive the genome for execution ``index`` from the corpus as of
        the last batch barrier (pure function of seed + past results)."""
        derived = derive_fuzz_seed(self.seed, index)
        rng = random.Random(derived)
        lim = self.limits
        if not self.corpus:
            origin = "seed"
            genome = seed_genome(
                rng, lim.max_blocks, lim.block_len, lim.max_iters,
                lim.data_words,
            )
        else:
            roll = rng.random()
            if roll < 0.15:
                origin = "seed"
                genome = seed_genome(
                    rng, lim.max_blocks, lim.block_len, lim.max_iters,
                    lim.data_words,
                )
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
            index=index,
            derived_seed=derived,
            genome=genome,
            origin=origin,
            bug=self.bug,
        )

    # -- state folding ------------------------------------------------------

    def absorb(self, task: FuzzTask, result: FuzzResult) -> None:
        """Fold one result into coverage/corpus/findings (canonical order)."""
        new_keys = self.coverage.add(result.coverage)
        if new_keys:
            self.corpus.append(
                CorpusEntry(
                    index=task.index,
                    genome=task.genome,
                    origin=task.origin,
                    new_keys=tuple(new_keys),
                    coverage=result.coverage,
                    ok=result.ok,
                )
            )
        if result.ok:
            return
        self.failure_runs += 1
        signature = failure_signature(result.failures, result.coverage)
        if signature in self._seen_signatures:
            return
        self._seen_signatures[signature] = task.index
        if len(self.findings) >= self.max_findings:
            return
        self.findings.append(self._minimize(signature, task, result))

    def _minimize(
        self, signature: str, task: FuzzTask, result: FuzzResult
    ) -> Finding:
        def oracle(genome: ProgramGenome) -> OracleReport:
            return evaluate(
                build_program(genome), config=self.config, bug=self.bug
            )

        shrunk = shrink(
            task.genome, result.failures, oracle, budget=self.shrink_budget
        )
        finding = Finding(
            signature=signature,
            failures=result.failures,
            first_index=task.index,
            genome=shrunk.genome,
            report=shrunk.report,
            shrink_evaluations=shrunk.evaluations,
        )
        if self.artifacts_dir is not None:
            artifact = ReproArtifact(
                name="fail",
                genome=shrunk.genome,
                config=self.config,
                verdict=Verdict.from_report(shrunk.report),
                coverage=shrunk.report.coverage,
                bug=self.bug,
                seed=self.seed,
                origin=f"fuzz:{task.origin}@{task.index}",
            )
            finding.artifact_path = save_artifact(artifact, self.artifacts_dir)
        return finding

    def save_corpus(self, directory: str) -> List[str]:
        """Write every corpus entry as a (passing) repro artifact."""
        paths = []
        for entry in self.corpus:
            program = build_program(entry.genome)
            report = evaluate(program, config=self.config, bug=self.bug)
            artifact = ReproArtifact(
                name="cov",
                genome=entry.genome,
                config=self.config,
                verdict=Verdict.from_report(report),
                coverage=report.coverage,
                bug=self.bug,
                seed=self.seed,
                origin=f"fuzz:{entry.origin}@{entry.index}",
            )
            paths.append(save_artifact(artifact, directory))
        return paths


def run_fuzz(
    seed: int = 1,
    budget: int = 500,
    config: Optional[CoreConfig] = None,
    backend: Optional[Backend] = None,
    batch: int = 32,
    limits: GeneratorLimits = GeneratorLimits(),
    shrink_budget: int = 250,
    artifacts_dir: Optional[str] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    observers: Sequence[ProgressObserver] = (),
    save_corpus_dir: Optional[str] = None,
    bug: Optional[BugSpec] = None,
    checkpoint_fsync: bool = False,
    shutdown: Optional[GracefulShutdown] = None,
) -> FuzzSummary:
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
        shutdown: A :class:`~repro.exec.durability.GracefulShutdown`
            latch; once requested the backend stops dispatching and the
            driver stops after the current generation. A generation whose
            evaluations were only partially collected is *not* absorbed
            into the corpus — its completed records are already
            checkpointed, so a resume replays the full generation and the
            schedule evolves exactly as in an uninterrupted run.

    Returns:
        The :class:`FuzzSummary` (coverage map, corpus, findings).

    Fault tolerance: under a quarantining policy (the fuzz CLI's default),
    an evaluation the execution layer gives up on (exception / timeout /
    worker crash after retries) lands in ``FuzzSummary.task_failures``
    instead of aborting the campaign, is checkpointed as an
    ``eval-failure`` record (so a resume skips it), and contributes nothing
    to coverage/corpus — the downstream schedule evolves exactly as if the
    run had produced no novelty, which keeps resume and fresh runs
    consistent with each other. The default backend runs under
    :data:`~repro.exec.resilience.FAIL_FAST` and raises instead.
    """
    if resume and checkpoint_path is None:
        raise ValueError("resume=True requires checkpoint_path")
    campaign = FuzzCampaign(
        seed=seed,
        budget=budget,
        config=config,
        batch=batch,
        limits=limits,
        shrink_budget=shrink_budget,
        artifacts_dir=artifacts_dir,
        bug=bug,
    )
    backend = backend if backend is not None else SerialBackend()
    context = ExecutionContext(
        programs={},
        config=campaign.config,
        runner=run_fuzz_task,
        shutdown=shutdown,
    )
    expected_manifest = _fuzz_manifest(
        seed, batch, limits, campaign.config, bug
    )

    restored: Dict[int, FuzzResult] = {}
    quarantined: Dict[int, TaskFailure] = {}
    if resume:
        manifest, restored, restored_failures = load_fuzz_checkpoint_full(
            checkpoint_path
        )
        _verify_fuzz_manifest(manifest, expected_manifest, checkpoint_path)
        quarantined.update(restored_failures)

    log: Optional[SealedLog] = None
    if checkpoint_path is not None:
        log = SealedLog(
            checkpoint_path,
            expected_manifest,
            resume=resume,
            fsync=checkpoint_fsync,
        )

    started = time.monotonic()
    executed = 0
    restored_used = 0

    def emit() -> None:
        elapsed = time.monotonic() - started
        throughput = executed / elapsed if elapsed > 0 and executed else 0.0
        done = restored_used + executed
        eta = (
            (budget - done) / throughput if throughput > 0 else None
        )
        event = ProgressEvent(
            done=done,
            total=budget,
            skipped=restored_used,
            elapsed_s=elapsed,
            throughput=throughput,
            eta_s=eta,
            benchmark=None,
            failed=len(quarantined),
        )
        for observer in observers:
            observer(event)

    try:
        index = 0
        while index < budget:
            size = min(batch, budget - index)
            tasks = [campaign.schedule(index + i) for i in range(size)]
            results: Dict[int, FuzzResult] = {}
            pending = []
            for task in tasks:
                if task.index in restored:
                    results[task.index] = restored[task.index]
                    restored_used += 1
                elif task.index in quarantined:
                    restored_used += 1  # known-bad; don't re-crash on it
                else:
                    pending.append(task)
            if pending and observers:
                emit()
            for task, outcome in backend.run(pending, context):
                if isinstance(outcome, TaskFailure):
                    quarantined[task.index] = outcome
                    record = {
                        "type": "eval-failure",
                        "index": task.index,
                        "failure": outcome.to_record(),
                    }
                else:
                    results[task.index] = outcome
                    record = _result_to_record(outcome)
                if log is not None:
                    log.append(record)
                executed += 1
                emit()
            interrupted = shutdown is not None and shutdown.requested
            if interrupted:
                accounted = sum(
                    1
                    for task in tasks
                    if task.index in results or task.index in quarantined
                )
                if accounted < size:
                    # A partially-collected generation must not feed the
                    # corpus: its completed records are checkpointed, so a
                    # resume replays the whole generation and the schedule
                    # evolves exactly as in an uninterrupted run.
                    break
            by_index = {task.index: task for task in tasks}
            for i in sorted(results):
                campaign.absorb(by_index[i], results[i])
            index += size
            if interrupted:
                break
    finally:
        if log is not None:
            log.close()

    if save_corpus_dir is not None:
        campaign.save_corpus(save_corpus_dir)

    summary = FuzzSummary(
        seed=seed,
        budget=budget,
        batch=batch,
        executed=executed,
        restored=restored_used,
        coverage=campaign.coverage,
        corpus=campaign.corpus,
        findings=campaign.findings,
        failure_runs=campaign.failure_runs,
        elapsed_s=time.monotonic() - started,
        task_failures=dict(sorted(quarantined.items())),
    )
    return summary
