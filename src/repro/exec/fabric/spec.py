"""The campaign spec: the fabric's single source of truth.

Workers never choose campaign parameters themselves, they receive this
with every lease, so a fleet cannot silently mix seeds, scales or design
points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.bugs.models import BugModel, PRIMARY_MODELS
from repro.exec.durability import identity_hash
from repro.exec.tasks import InjectionTask, generate_tasks


@dataclass(frozen=True)
class CampaignSpec:
    """Everything a worker needs to regenerate the campaign's task list.

    The spec is the fabric's single source of truth: workers never choose
    campaign parameters themselves, they receive this with every lease, so
    a fleet cannot silently mix seeds, scales or design points. Throughput
    knobs (jobs, snapshot interval, batching) deliberately do
    NOT appear here — they are per-worker choices that cannot change
    results.
    """

    benchmarks: Tuple[str, ...]
    runs_per_model: int
    seed: int = 1
    scale: float = 1.0
    models: Tuple[str, ...] = tuple(m.value for m in PRIMARY_MODELS)
    max_attempts: int = 6
    shard_size: int = 25
    #: Serialized CoreConfig (CoreConfig.to_dict()) or None for the default
    #: design point — matches the checkpoint manifest field of PR 6.
    design_point: Optional[Dict[str, object]] = None

    def __post_init__(self) -> None:
        if self.runs_per_model < 0:
            raise ValueError(
                f"runs_per_model must be >= 0, got {self.runs_per_model}"
            )
        if self.shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {self.shard_size}")
        if not self.benchmarks:
            raise ValueError("a campaign needs at least one benchmark")
        for name in self.models:
            BugModel(name)  # raises ValueError on unknown model names

    def to_dict(self) -> Dict[str, object]:
        return {
            "benchmarks": list(self.benchmarks),
            "runs_per_model": self.runs_per_model,
            "seed": self.seed,
            "scale": self.scale,
            "models": list(self.models),
            "max_attempts": self.max_attempts,
            "shard_size": self.shard_size,
            "design_point": self.design_point,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CampaignSpec":
        return cls(
            benchmarks=tuple(data["benchmarks"]),
            runs_per_model=data["runs_per_model"],
            seed=data.get("seed", 1),
            scale=data.get("scale", 1.0),
            models=tuple(data.get("models") or (m.value for m in PRIMARY_MODELS)),
            max_attempts=data.get("max_attempts", 6),
            shard_size=data.get("shard_size", 25),
            design_point=data.get("design_point"),
        )

    @property
    def model_enums(self) -> List[BugModel]:
        return [BugModel(name) for name in self.models]

    def tasks(self) -> List[InjectionTask]:
        """The campaign's canonical task list (config-independent seeds)."""
        return generate_tasks(
            list(self.benchmarks),
            self.runs_per_model,
            self.model_enums,
            self.seed,
            self.max_attempts,
            config=self.core_config(),
        )

    def core_config(self):
        if self.design_point is None:
            return None
        from repro.core.config import CoreConfig

        return CoreConfig.from_dict(self.design_point)

    def programs(self) -> Dict[str, object]:
        from repro.workloads import WORKLOADS, parse_benchmarks

        parse_benchmarks(",".join(self.benchmarks))  # rejects unknown names
        return {
            name: WORKLOADS[name](scale=self.scale) for name in self.benchmarks
        }

    def expected_manifest_identity(self) -> str:
        """The manifest identity every shard checkpoint of this campaign
        must carry — computable without running a single golden cycle
        (golden summaries are excluded from manifest identity), so the
        coordinator can reject foreign shards before merging them."""
        fields: Dict[str, object] = {
            "seed": self.seed,
            "runs_per_model": self.runs_per_model,
            "models": list(self.models),
            "benchmarks": list(self.benchmarks),
            "max_attempts": self.max_attempts,
        }
        if self.design_point is not None:
            fields["design_point"] = self.design_point
        return identity_hash(fields)
