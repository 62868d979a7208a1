"""The campaign engine: task generation -> backend -> ordered aggregation.

This is the one execution path behind both :func:`repro.bugs.campaign.run_campaign`
and the ``idld-campaign`` CLI. It generates the canonical task list, skips
tasks already present in a resume checkpoint, streams the rest through the
chosen backend, checkpoints each completion, emits progress events, and
finally assembles a :class:`~repro.bugs.campaign.CampaignResult` in task
order — making the campaign independent of backend, worker count, and
interruptions.

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
from typing import Dict, Iterable, Optional, Sequence

from repro.bugs.campaign import CampaignResult, InjectionResult
from repro.bugs.models import BugModel, PRIMARY_MODELS
from repro.core.config import CoreConfig
from repro.exec.backends import (
    Backend,
    ExecutionContext,
    SerialBackend,
    TaskRunner,
)
from repro.exec.checkpoint import (
    CheckpointError,
    CheckpointWriter,
    load_checkpoint_full,
    manifest_for,
)
from repro.exec.durability import GracefulShutdown
from repro.exec.progress import ProgressEvent, ProgressObserver
from repro.exec.resilience import TaskFailure, TaskFailureRecord
from repro.exec.tasks import generate_tasks
from repro.isa.program import Program


def _verify_manifest(
    manifest, seed, runs_per_model, models, benchmarks, path, config=None
):
    # A default-config campaign writes no design point, so on both sides
    # an absent one reads as the default geometry.
    default = CoreConfig().to_dict()
    expected = {
        "seed": seed,
        "runs_per_model": runs_per_model,
        "models": [m.value for m in models],
        "benchmarks": list(benchmarks),
        "design_point": default if config is None else config.to_dict(),
    }
    actual = {
        "seed": manifest.seed,
        "runs_per_model": manifest.runs_per_model,
        "models": manifest.models,
        "benchmarks": manifest.benchmarks,
        "design_point": manifest.design_point or default,
    }
    for key in expected:
        if expected[key] != actual[key]:
            raise CheckpointError(
                f"{path}: checkpoint {key}={actual[key]!r} does not match "
                f"this campaign's {key}={expected[key]!r}; refusing to resume"
            )


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
    snapshot_interval: int = 0,
    checkpoint_fsync: bool = False,
    task_runner: Optional[TaskRunner] = None,
    shutdown: Optional[GracefulShutdown] = None,
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
            failing tasks are handled (retry + quarantine, watchdog, pool
            respawn, serial degradation); the default,
            :data:`~repro.exec.resilience.FAIL_FAST`, raises
            :class:`~repro.exec.resilience.FaultToleranceError` at the
            first failing task.
        checkpoint_path: Append each completed result to this JSONL file.
        resume: Load ``checkpoint_path`` first and skip its completed
            tasks *and* its quarantined tasks; the file keeps growing in
            place.
        observers: Progress-event callables (see :mod:`repro.exec.progress`).
        snapshot_interval: Golden snapshot period in cycles; 0 runs every
            injection cold. Snapshots serve both warm starts and
            convergence-terminated suffixes (:mod:`repro.bugs.differential`).
            Purely a throughput knob — results (and checkpoints) are
            bit-identical for any value, which is why it is deliberately
            NOT part of the checkpoint manifest identity.
        checkpoint_fsync: ``os.fsync`` every checkpoint record (survives
            hard machine kills, not just process kills) at an I/O cost.
        task_runner: Override the per-task execution function (see
            :data:`~repro.exec.backends.TaskRunner`); the chaos hooks
            (:mod:`repro.exec.chaos`) use it to wrap the injection path
            with fault injection.
        shutdown: A :class:`~repro.exec.durability.GracefulShutdown` latch;
            once requested (SIGINT/SIGTERM) the backend stops dispatching,
            drains inflight work under the latch's deadline and the engine
            returns a partial — but checkpointed and resumable — campaign.

    Returns:
        The populated :class:`CampaignResult`, with completed results in
        canonical task order regardless of completion order and any
        quarantined tasks on ``CampaignResult.failures``.
    """
    models = list(models)
    if resume and checkpoint_path is None:
        raise ValueError("resume=True requires checkpoint_path")
    tasks = generate_tasks(
        list(programs), runs_per_model, models, seed, max_attempts,
        config=config,
    )
    backend = backend if backend is not None else SerialBackend()
    context = ExecutionContext(
        programs=programs,
        config=config,
        runner=task_runner,
        snapshot_interval=snapshot_interval,
        shutdown=shutdown,
    )
    goldens = {name: context.golden(name) for name in programs}

    completed: Dict[int, InjectionResult] = {}
    failed: Dict[int, TaskFailureRecord] = {}
    skipped = 0
    if resume:
        manifest, done, quarantined = load_checkpoint_full(checkpoint_path)
        _verify_manifest(
            manifest, seed, runs_per_model, models, list(programs),
            checkpoint_path, config=config,
        )
        by_key = {task.key: task for task in tasks}
        for key, (index, result) in done.items():
            if key in by_key:
                completed[by_key[key].index] = result
        for key, record in quarantined.items():
            if key in by_key:
                failed[by_key[key].index] = record
        skipped = len(completed) + len(failed)

    writer: Optional[CheckpointWriter] = None
    if checkpoint_path is not None:
        manifest = manifest_for(
            seed, runs_per_model, models, list(programs), max_attempts,
            goldens, config=config,
        )
        writer = CheckpointWriter(
            checkpoint_path, manifest, resume=resume, fsync=checkpoint_fsync
        )

    total = len(tasks)
    bench_totals = {name: 0 for name in programs}
    for task in tasks:
        bench_totals[task.benchmark] += 1
    bench_done = {name: 0 for name in programs}
    for index in completed:
        bench_done[tasks[index].benchmark] += 1
    for index in failed:
        bench_done[tasks[index].benchmark] += 1

    started = time.monotonic()
    executed = 0

    def emit(benchmark: Optional[str]) -> None:
        elapsed = time.monotonic() - started
        throughput = executed / elapsed if elapsed > 0 and executed else 0.0
        remaining = total - (skipped + executed)
        eta = remaining / throughput if throughput > 0 else None
        event = ProgressEvent(
            done=skipped + executed,
            total=total,
            skipped=skipped,
            elapsed_s=elapsed,
            throughput=throughput,
            eta_s=eta,
            benchmark=benchmark,
            per_benchmark={
                name: (bench_done[name], bench_totals[name])
                for name in bench_totals
            },
            failed=len(failed),
        )
        for observer in observers:
            observer(event)

    try:
        if skipped and observers:
            emit(None)
        pending = [
            task
            for task in tasks
            if task.index not in completed and task.index not in failed
        ]
        for task, outcome in backend.run(pending, context):
            if isinstance(outcome, TaskFailure):
                failed[task.index] = TaskFailureRecord(
                    key=task.key,
                    index=task.index,
                    benchmark=task.benchmark,
                    failure=outcome,
                )
                if writer is not None:
                    writer.write_failure(task, outcome)
            else:
                completed[task.index] = outcome
                if writer is not None:
                    writer.write_result(task, outcome)
            executed += 1
            bench_done[task.benchmark] += 1
            emit(task.benchmark)
    finally:
        if writer is not None:
            writer.close()

    campaign = CampaignResult(goldens=dict(goldens))
    campaign.results = [
        completed[task.index] for task in tasks if task.index in completed
    ]
    campaign.failures = [failed[index] for index in sorted(failed)]
    return campaign
