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
    historical serial loop, so exports keep their row order. ``config`` is
    accepted and ignored: the task list is the same at every design point,
    because seed derivation is deliberately config-independent (the same
    master seed explores the same injection streams everywhere), and the
    checkpoint manifest pins the geometry a campaign ran at.
    """
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    if runs_per_model < 0:
        raise ValueError(f"runs_per_model must be >= 0, got {runs_per_model}")
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
                    )
                )
    return tasks


def execute_task(
    task: InjectionTask,
    program: "Program",
    golden: "RunResult",
    config: Optional["CoreConfig"] = None,
    snapshots: Optional["SnapshotProvider"] = None,
) -> "InjectionResult":
    """Execute one task: draw from its private stream until activation.

    Pure with respect to the task — no shared RNG, no global state — so
    backends may run tasks in any order or process. Campaigns pass the
    benchmark's ``snapshots`` provider; with None each attempt is the cold
    run, from power-on to the end, which is the oracle the
    snapshot-driven results must equal (so the provider never joins the
    task's identity).
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
            program, golden, spec, config, snapshots=snapshots
        )
        if result.activated:
            break
    assert result is not None  # max_attempts >= 1 is enforced at generation
    return result
