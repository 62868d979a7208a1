"""Campaign execution engine: tasks, backends, checkpointing, progress.

The injection campaign is decomposed into independent
:class:`~repro.exec.tasks.InjectionTask` units, each carrying its own
deterministically-derived seed, so execution order and worker count never
change results. Pluggable backends (:class:`~repro.exec.backends.SerialBackend`,
:class:`~repro.exec.backends.ProcessPoolBackend`) run the tasks; the engine
aggregates results in canonical task order, checkpoints them incrementally
to an append-only JSONL file, and emits progress events.

Fault tolerance lives in :mod:`repro.exec.resilience`: every backend runs
its tasks under a :class:`~repro.exec.resilience.FaultPolicy` — a per-task
wall-clock budget, bounded retries and structured quarantine
(:class:`~repro.exec.resilience.TaskFailure`). A pool worker holds one
task at a time, so a worker that dies, or that the pool's watchdog kills
at the budget (the one task timer, so a budget always runs on the pool),
costs exactly one attempt of its own task, and only that worker is
replaced. Workers fork from the run's context, with the golden runs the
parent built. A backend built without a policy uses
:data:`~repro.exec.resilience.FAIL_FAST`, which raises at the first
failing task.

Artifact integrity lives in :mod:`repro.exec.durability`: one sealed log
(:class:`~repro.exec.durability.SealedLog`: CRC-sealed records, format v2,
under an exclusive ``flock`` on the file that dies with its writer) that
campaign and fuzz checkpoints share, with its strict loader, the rule a
resume applies and the streaming scan/repair primitives behind the
``repro checkpoint`` CLI, plus atomic exports. A run stops the way it
fails, by an exception (the CLIs raise :class:`KeyboardInterrupt` on
SIGINT and SIGTERM), and resumes from its flushed checkpoint.
"""

from repro.exec.backends import Backend, ProcessPoolBackend, SerialBackend
from repro.exec.checkpoint import (
    CheckpointError,
    CheckpointWriter,
    load_checkpoint_full,
)
from repro.exec.durability import (
    CheckpointLockedError,
    SHUTDOWN_EXIT_CODE,
    atomic_write_text,
    scan_checkpoint,
    truncate_torn_tail,
)
from repro.exec.engine import run_engine
from repro.exec.progress import ProgressEvent, ProgressPrinter
from repro.exec.resilience import (
    FaultPolicy,
    FaultToleranceError,
    TaskFailure,
    TaskFailureRecord,
)
from repro.exec.tasks import (
    InjectionTask,
    derive_seed,
    execute_task,
    generate_tasks,
)

__all__ = [
    "Backend",
    "CheckpointError",
    "CheckpointLockedError",
    "CheckpointWriter",
    "FaultPolicy",
    "FaultToleranceError",
    "InjectionTask",
    "ProcessPoolBackend",
    "ProgressEvent",
    "ProgressPrinter",
    "SHUTDOWN_EXIT_CODE",
    "SerialBackend",
    "TaskFailure",
    "TaskFailureRecord",
    "atomic_write_text",
    "derive_seed",
    "execute_task",
    "generate_tasks",
    "load_checkpoint_full",
    "run_engine",
    "scan_checkpoint",
    "truncate_torn_tail",
]
