"""Task decomposition of an injection campaign.

A campaign is a flat list of :class:`InjectionTask` units, one per
(benchmark, bug model, run index) triple, generated up-front in a canonical
order. Each task carries a ``derived_seed`` computed from the master seed
with a stable hash, so every task owns an independent random stream: the
specs it draws are identical whether the task runs first or last, serially
or on any number of workers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
    Union,
)

from repro.bugs.models import BugModel, PRIMARY_MODELS

if TYPE_CHECKING:  # pragma: no cover
    from repro.bugs.campaign import InjectionResult
    from repro.bugs.snapshot import SnapshotProvider
    from repro.core.config import CoreConfig
    from repro.core.cpu import RunResult
    from repro.isa.program import Program

#: Domain separator for seed derivation; bump if the scheme ever changes.
SEED_NAMESPACE = "idld-campaign-v1"


def derive_seed(
    master_seed: int, benchmark: str, model: BugModel, run_index: int
) -> int:
    """Derive a per-task seed from the campaign master seed.

    Uses a stable cryptographic hash (not Python's randomized ``hash()``)
    so the value is identical across processes, platforms and Python
    versions.
    """
    key = f"{SEED_NAMESPACE}:{master_seed}:{benchmark}:{model.value}:{run_index}"
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class InjectionTask:
    """One unit of campaign work: a single injection with its own seed.

    Attributes:
        index: Position in the canonical campaign order; results are
            re-sorted by this after execution, whatever the backend did.
        benchmark: Workload name (key into the campaign's program dict).
        model: The bug model to draw from.
        run_index: Which of the ``runs_per_model`` repetitions this is.
        derived_seed: Task-local seed (see :func:`derive_seed`).
        max_attempts: Redraws allowed until the injection activates.
    """

    index: int
    benchmark: str
    model: BugModel
    run_index: int
    derived_seed: int
    max_attempts: int = 6
    #: Design-point digest (CoreConfig.digest()) the task was generated
    #: for, or None when the campaign runs the default configuration. A
    #: task is only meaningful against the core geometry it was drawn for
    #: (inject-cycle windows, Pdst widths and array sizes all depend on
    #: it), so the digest travels with the task and into checkpoints.
    design_point: Optional[str] = None

    @property
    def key(self) -> str:
        """Stable identity used for checkpoint/resume matching."""
        return f"{self.benchmark}/{self.model.value}/{self.run_index}"


def generate_tasks(
    benchmarks: Sequence[str],
    runs_per_model: int,
    models: Iterable[BugModel] = PRIMARY_MODELS,
    seed: int = 1,
    max_attempts: int = 6,
    config: Optional["CoreConfig"] = None,
) -> List[InjectionTask]:
    """Generate the full campaign task list in canonical order.

    The order is benchmark-major, then model, then run index — matching the
    historical serial loop, so exports keep their row order. ``config``
    stamps each task with the campaign's design-point digest; seed
    derivation is deliberately config-independent (the same master seed
    explores the same injection streams at every design point).
    """
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    if runs_per_model < 0:
        raise ValueError(f"runs_per_model must be >= 0, got {runs_per_model}")
    design_point = None if config is None else config.digest()
    tasks: List[InjectionTask] = []
    for benchmark in benchmarks:
        for model in models:
            for run_index in range(runs_per_model):
                tasks.append(
                    InjectionTask(
                        index=len(tasks),
                        benchmark=benchmark,
                        model=model,
                        run_index=run_index,
                        derived_seed=derive_seed(
                            seed, benchmark, model, run_index
                        ),
                        max_attempts=max_attempts,
                        design_point=design_point,
                    )
                )
    return tasks


def execute_task(
    task: InjectionTask,
    program: "Program",
    golden: "RunResult",
    config: Optional["CoreConfig"] = None,
    snapshots: Optional["SnapshotProvider"] = None,
    deadline: Optional[float] = None,
) -> "InjectionResult":
    """Execute one task: draw from its private stream until activation.

    Pure with respect to the task — no shared RNG, no global state — so
    backends may run tasks in any order or process. ``snapshots`` is a
    throughput-only knob: snapshot-driven and cold attempts produce
    bit-identical results, so it never joins the task's identity.
    ``deadline`` (absolute
    ``time.monotonic()``) is the whole-task wall-clock budget shared by
    all redraw attempts; expiry raises
    :class:`~repro.core.errors.DeadlineExceeded` to the execution layer.
    """
    from repro.bugs.campaign import run_injection
    from repro.bugs.injector import draw_attempts
    from repro.core.config import CoreConfig

    result = None
    for spec in draw_attempts(
        task.model,
        task.derived_seed,
        golden.cycles,
        config or CoreConfig(),
        task.max_attempts,
    ):
        result = run_injection(
            program, golden, spec, config, snapshots=snapshots,
            deadline=deadline,
        )
        if result.activated:
            break
    assert result is not None  # max_attempts >= 1 is enforced at generation
    return result


@dataclass(frozen=True)
class BatchedInjectionTask:
    """A group of same-benchmark tasks executed back-to-back in one dispatch.

    Batching amortizes the per-task execution overhead — pool dispatch,
    future bookkeeping, checkpoint round-trips of the parent loop — across
    every member while leaving the members' *results* untouched: a batch is
    executed by running each member exactly as :func:`execute_task` would,
    against the same shared provider, so campaign outputs are bit-identical
    for any batch size (including 1, i.e. batching off).

    Members share a (benchmark, inject-window) group key — their first-draw
    inject cycles land in the same snapshot-interval window — so the warm
    restores of a batch walk the same region of the golden timeline and the
    provider's snapshots/delta stay hot in cache between members.

    The batch is the unit of dispatch, retry and quarantine; the engine
    fans results (or a failure) back out to the per-member checkpoint
    records, so resume works at task granularity and a re-run never
    re-executes completed members.
    """

    members: Tuple[InjectionTask, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a batch needs at least one member task")
        benchmarks = {t.benchmark for t in self.members}
        if len(benchmarks) != 1:
            raise ValueError(
                f"batch members must share one benchmark, got {benchmarks}"
            )

    @property
    def index(self) -> int:
        """Dispatch-ordering position: the first member's campaign index."""
        return self.members[0].index

    @property
    def benchmark(self) -> str:
        return self.members[0].benchmark

    @property
    def key(self) -> str:
        """Stable identity for retry/quarantine tracking (checkpoint records
        stay per-member, so this key never lands in artifacts)."""
        return f"batch/{self.members[0].key}*{len(self.members)}"


def execute_batch(
    batch: BatchedInjectionTask,
    program: "Program",
    golden: "RunResult",
    config: Optional["CoreConfig"] = None,
    snapshots: Optional["SnapshotProvider"] = None,
    deadline: Optional[float] = None,
) -> List["InjectionResult"]:
    """Execute every member of a batch, in member order.

    One result per member, each bit-identical to an unbatched
    :func:`execute_task` of that member. ``deadline`` covers the whole
    batch (the execution layer scales the per-task budget by the member
    count before computing it).
    """
    return [
        execute_task(
            task, program, golden, config,
            snapshots=snapshots, deadline=deadline,
        )
        for task in batch.members
    ]


def group_into_batches(
    tasks: Sequence[InjectionTask],
    goldens: "Dict[str, RunResult]",
    config: Optional["CoreConfig"],
    snapshot_interval: int,
    batch_size: int,
) -> List[Union[InjectionTask, BatchedInjectionTask]]:
    """Group pending tasks into dispatch batches by (benchmark, window).

    The group key is the snapshot-interval window of each task's *first*
    spec draw (replayed here from the task's derived seed — cheap, and the
    worker redraws identically), so one warm restore region serves a whole
    batch. Groups are chunked to at most ``batch_size`` members, singleton
    chunks stay plain :class:`InjectionTask`, and the batch list is ordered
    by first-member campaign index. Purely a dispatch-shape transform:
    the member set, member order inside a group, and every result are
    independent of ``batch_size``.
    """
    import random

    from repro.bugs.injector import draw_spec
    from repro.core.config import CoreConfig

    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if batch_size == 1:
        return list(tasks)
    cfg = config or CoreConfig()
    window = snapshot_interval if snapshot_interval > 0 else 0
    groups: "Dict[tuple, List[InjectionTask]]" = {}
    for task in tasks:
        golden_cycles = goldens[task.benchmark].cycles
        spec = draw_spec(
            task.model, random.Random(task.derived_seed), golden_cycles, cfg
        )
        bucket = spec.inject_cycle // window if window else 0
        groups.setdefault((task.benchmark, bucket), []).append(task)
    out: List[Union[InjectionTask, BatchedInjectionTask]] = []
    for members in groups.values():
        for start in range(0, len(members), batch_size):
            chunk = members[start:start + batch_size]
            if len(chunk) == 1:
                out.append(chunk[0])
            else:
                out.append(BatchedInjectionTask(members=tuple(chunk)))
    out.sort(key=lambda unit: unit.index)
    return out
