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
from typing import Iterable, List, Optional, Sequence, TYPE_CHECKING

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
