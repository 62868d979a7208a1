"""The run driver both engines share (:class:`RunDriver`), and the
campaign engine on it.

:func:`run_engine` is the one library call that runs a campaign, and the
``idld-campaign`` CLI and ``repro sweep`` run theirs through it. It
generates the canonical task list, streams the tasks a resume checkpoint
does not already hold through the chosen backend, and finally assembles a
:class:`~repro.bugs.campaign.CampaignResult` in task order — making the
campaign independent of backend, worker count, and interruptions. Every
injection restores the nearest golden snapshot and stops at provable
re-convergence (:mod:`repro.bugs.snapshot`); the cold run,
:func:`~repro.exec.tasks.execute_task` with no provider, is the oracle the
tests hold it to.

Fault tolerance: every backend runs under a
:class:`~repro.exec.resilience.FaultPolicy` and yields a structured
:class:`~repro.exec.resilience.TaskFailure` for any task it had to
quarantine (exception / timeout / worker-crash after retries). The engine
records those as ``failure`` checkpoint records — so a later ``--resume``
skips them instead of re-crashing — and carries them on
``CampaignResult.failures``, excluded from the figure aggregations. The
default backend runs under :data:`~repro.exec.resilience.FAIL_FAST`, so a
library campaign stops at its first failing task with a
:class:`~repro.exec.resilience.FaultToleranceError`.
"""

from __future__ import annotations

import time
from collections import Counter
from operator import attrgetter
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, Sequence

from repro.bugs.campaign import CampaignResult
from repro.bugs.models import BugModel, PRIMARY_MODELS
from repro.core.config import CoreConfig
from repro.exec.backends import (
    Backend,
    ExecutionContext,
    SerialBackend,
    TaskRunner,
    run_injection_task,
)
from repro.exec.checkpoint import (
    CheckpointWriter,
    comparable,
    load_checkpoint_full,
    manifest_for,
)
from repro.exec.durability import CheckpointError, SealedLog, manifest_mismatch
from repro.exec.progress import ProgressEvent, ProgressObserver
from repro.exec.resilience import TaskFailure, TaskFailureRecord
from repro.exec.tasks import generate_tasks
from repro.isa.program import Program


class RunDriver:
    """One run of an engine over its optional checkpoint at ``path``.

    Locks the run's sealed log before any set-up, so a refused writer
    learns it at once; then builds the manifest with ``manifest()`` (the
    campaign's golden runs), refuses a resumed file by
    :func:`~repro.exec.durability.manifest_mismatch` and only then begins
    the log. It runs the tasks the file does not hold, appends each
    outcome as the backend yields it and turns the counts into progress
    events.

    The engine brings its codec: ``log_class``, a
    :class:`~repro.exec.durability.SealedLog` with ``write_result`` and
    ``write_failure``; ``load``, which reads a checkpoint into
    ``(manifest, done, failures)``, each record decoded once by the
    codec's ``decode_record`` and keyed as ``key`` keys a task (a resume
    keeps ``done`` and ``failures`` for the engine); and
    ``view``, which maps a manifest to the record the rule compares.
    ``groups`` names each task's benchmark, when the run has benchmarks.
    """

    def __init__(
        self,
        path: Optional[str],
        manifest: Callable[[], Any],
        log_class: Callable[..., SealedLog],
        load: Callable[[str], tuple],
        view: Callable[[Any], Dict[str, object]] = dict,
        key: Callable[[Any], object] = attrgetter("key"),
        resume: bool = False,
        fsync: bool = False,
        observers: Sequence[ProgressObserver] = (),
        total: int = 0,
        groups: Iterable[str] = (),
    ) -> None:
        if resume and path is None:
            raise ValueError("resume=True requires checkpoint_path")
        self.log: Optional[SealedLog] = None
        if path is not None:
            self.log = log_class(path, resume=resume, fsync=fsync)
        self.done: Dict = {}
        self.failures: Dict = {}
        try:
            expected = manifest()
            if resume:
                recorded, self.done, self.failures = load(path)
                why = manifest_mismatch(view(recorded), view(expected))
                if why is not None:
                    raise CheckpointError(
                        f"{path}: checkpoint {why}; refusing to resume"
                    )
            if self.log is not None:
                self.log.begin(expected)
        except BaseException:
            if self.log is not None:
                self.log.close()
            raise
        self.key = key
        self.observers = observers
        self.total = total
        self.group_totals = Counter(groups)
        self.group_done: Counter = Counter()
        self.skipped = self.executed = self._shown = 0
        self.failed = len(self.failures)
        self.started = time.monotonic()

    def run(self, backend: Any, tasks: Sequence, context: Any) -> Iterator:
        """Run the ``tasks`` the checkpoint does not hold, counting the
        others as skipped (and reporting them before the dispatch), and
        yield the backend's ``(task, outcome)`` pairs, each appended and
        reported first."""
        pending = []
        for task in tasks:
            if self.key(task) in self.done or self.key(task) in self.failures:
                self.skipped += 1
                self.group_done[getattr(task, "benchmark", None)] += 1
            else:
                pending.append(task)
        if self.skipped + self.executed != self._shown:
            self._emit(None)
        for task, outcome in backend.run(pending, context):
            if isinstance(outcome, TaskFailure):
                self.failed += 1
                if self.log is not None:
                    self.log.write_failure(task, outcome)
            elif self.log is not None:
                self.log.write_result(task, outcome)
            self.executed += 1
            benchmark = getattr(task, "benchmark", None)
            self.group_done[benchmark] += 1
            self._emit(benchmark)
            yield task, outcome

    def _emit(self, benchmark: Optional[str]) -> None:
        elapsed = time.monotonic() - self.started
        executed = self.executed
        rate = executed / elapsed if elapsed > 0 and executed else 0.0
        done = self._shown = self.skipped + executed
        event = ProgressEvent(
            done=done,
            total=self.total,
            skipped=self.skipped,
            elapsed_s=elapsed,
            throughput=rate,
            eta_s=(self.total - done) / rate if rate > 0 else None,
            benchmark=benchmark,
            per_benchmark={
                name: (self.group_done[name], total)
                for name, total in self.group_totals.items()
            },
            failed=self.failed,
        )
        for observer in self.observers:
            observer(event)

    def __enter__(self) -> "RunDriver":
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self.log is not None:
            self.log.close()


def run_engine(
    programs: Dict[str, Program],
    runs_per_model: int,
    models: Iterable[BugModel] = PRIMARY_MODELS,
    seed: int = 1,
    config: Optional[CoreConfig] = None,
    max_attempts: int = 6,
    backend: Optional[Backend] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    observers: Sequence[ProgressObserver] = (),
    checkpoint_fsync: bool = False,
    task_runner: TaskRunner = run_injection_task,
) -> CampaignResult:
    """Run a full injection campaign through the task engine.

    Args:
        programs: benchmark name -> program.
        runs_per_model: Injections per (benchmark, model) pair.
        models: Bug models to exercise (the paper's three by default).
        seed: Master seed; each task's seed derives from it by stable hash,
            so results are identical for any backend or worker count.
        config: Core configuration (paper defaults when None).
        max_attempts: Redraws allowed until an injection activates; must be
            >= 1.
        backend: Execution backend (:class:`SerialBackend` when None).
            Its :class:`~repro.exec.resilience.FaultPolicy` decides how
            failing tasks are handled (retry + quarantine, and for the
            pool, the timeout watchdog and replacing a lost worker); the
            default, :data:`~repro.exec.resilience.FAIL_FAST`, raises
            :class:`~repro.exec.resilience.FaultToleranceError` at the
            first failing task.
        checkpoint_path: Append each completed result to this JSONL file.
        resume: Load ``checkpoint_path`` first and skip its completed
            tasks *and* its quarantined tasks; the file keeps growing in
            place.
        observers: Progress-event callables (see :mod:`repro.exec.progress`).
        checkpoint_fsync: ``os.fsync`` every checkpoint record (survives
            hard machine kills, not just process kills) at an I/O cost.
        task_runner: The per-task execution function (see
            :data:`~repro.exec.backends.TaskRunner`); the chaos hooks
            (:mod:`repro.exec.chaos`) use it to wrap the injection path
            with fault injection.

    Returns:
        The populated :class:`CampaignResult`, with completed results in
        canonical task order regardless of completion order and any
        quarantined tasks on ``CampaignResult.failures``.

    A stop is an exception like any other (the CLIs raise
    :class:`KeyboardInterrupt` on SIGINT and SIGTERM): the checkpoint holds
    every completed task, and a resume reruns those that were in flight.
    """
    models = list(models)
    tasks = generate_tasks(
        list(programs), runs_per_model, models, seed, max_attempts
    )
    backend = backend if backend is not None else SerialBackend()
    context = ExecutionContext(
        programs=programs, config=config, runner=task_runner
    )

    def goldens() -> Dict[str, Any]:
        return {name: context.golden(name) for name in programs}

    with RunDriver(
        checkpoint_path,
        lambda: manifest_for(
            seed, runs_per_model, models, list(programs), max_attempts,
            goldens(), config=config,
        ),
        CheckpointWriter,
        load_checkpoint_full,
        view=lambda m: comparable(m.to_record()),
        resume=resume,
        fsync=checkpoint_fsync,
        observers=observers,
        total=len(tasks),
        groups=[task.benchmark for task in tasks],
    ) as driver:
        completed = {index: result for index, result in driver.done.values()}
        failed = {record.index: record for record in driver.failures.values()}
        for task, outcome in driver.run(backend, tasks, context):
            if isinstance(outcome, TaskFailure):
                failed[task.index] = TaskFailureRecord(
                    key=task.key,
                    index=task.index,
                    benchmark=task.benchmark,
                    failure=outcome,
                )
            else:
                completed[task.index] = outcome

    campaign = CampaignResult(goldens=goldens())
    campaign.results = [
        completed[task.index] for task in tasks if task.index in completed
    ]
    campaign.failures = [failed[index] for index in sorted(failed)]
    return campaign
