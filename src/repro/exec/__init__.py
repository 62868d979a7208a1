"""Campaign execution engine: tasks, backends, checkpointing, progress.

The injection campaign is decomposed into independent
:class:`~repro.exec.tasks.InjectionTask` units, each carrying its own
deterministically-derived seed, so execution order and worker count never
change results. Pluggable backends (:class:`~repro.exec.backends.SerialBackend`,
:class:`~repro.exec.backends.ProcessPoolBackend`) run the tasks; the engine
aggregates results in canonical task order, checkpoints them incrementally
to an append-only JSONL file, and emits progress events.

Fault tolerance lives in :mod:`repro.exec.resilience`: construct a backend
with a :class:`~repro.exec.resilience.FaultPolicy` and tasks get wall-clock
deadlines, bounded retries, structured quarantine
(:class:`~repro.exec.resilience.TaskFailure`), worker-crash recovery with
pool respawn, and graceful degradation to serial execution.

Artifact integrity lives in :mod:`repro.exec.durability`: one sealed log
(:class:`~repro.exec.durability.SealedLog`: CRC-sealed records, format v2,
under a single-writer :class:`~repro.exec.durability.CheckpointLock`) that
campaign and fuzz checkpoints share, with its strict loader, merge rule
and the streaming scan/repair primitives behind the ``repro checkpoint``
CLI, plus atomic exports and the SIGINT/SIGTERM
:class:`~repro.exec.durability.GracefulShutdown` latch.

Distribution lives in :mod:`repro.exec.fabric`: a shard-leasing
coordinator (``repro serve``/``submit``/``status``/``fetch``) with
heartbeat-based lease expiry, jittered reassignment backoff, poison-shard
quarantine and continuous merge, plus the worker runtime (``repro work``)
that executes leased shards through :func:`run_engine` with graceful
drain and CRC-verified uploads.
"""

from repro.exec.backends import Backend, ProcessPoolBackend, SerialBackend
from repro.exec.checkpoint import (
    CheckpointError,
    CheckpointWriter,
    load_checkpoint_full,
)
from repro.exec.durability import (
    CheckpointLock,
    CheckpointLockedError,
    GracefulShutdown,
    SHUTDOWN_EXIT_CODE,
    atomic_write_text,
    scan_checkpoint,
    truncate_torn_tail,
)
from repro.exec.engine import run_engine
from repro.exec.fabric import (
    CampaignSpec,
    FabricCoordinator,
    FabricPolicy,
    FabricWorker,
    HttpTransport,
    LocalTransport,
)
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
    "CampaignSpec",
    "CheckpointError",
    "CheckpointLock",
    "CheckpointLockedError",
    "CheckpointWriter",
    "FabricCoordinator",
    "FabricPolicy",
    "FabricWorker",
    "FaultPolicy",
    "FaultToleranceError",
    "GracefulShutdown",
    "HttpTransport",
    "InjectionTask",
    "LocalTransport",
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
