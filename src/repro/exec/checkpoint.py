"""Append-only JSONL checkpointing for campaigns (``--checkpoint/--resume``).

File layout: line 1 is a ``manifest`` record pinning the campaign identity
(seed, models, benchmarks, runs, golden-run summaries); every later line is
one completed task ``result`` record — or one ``failure`` record for a task
the execution layer quarantined (kind ∈ {exception, timeout, worker-crash},
attempts, truncated traceback) — appended in completion order. Records
carry the canonical task index, so a campaign rebuilt from a checkpoint is
re-sorted into task order and is identical to an uninterrupted run; a
resume skips quarantined tasks instead of re-crashing on them.

Format v2, the only one read: every record additionally carries a ``crc``
(CRC32 of its canonical JSON payload) and the manifest an ``identity``
content hash of the campaign-identity fields, so interior corruption is
detected at read time with line numbers. A record without a CRC is damage,
and a manifest without an identity is refused; so is a record whose fields
do not decode (:func:`decode_record`), by every reader alike: resume,
``--from-checkpoint`` and ``repro checkpoint verify``/``repair``.

Writing, locking, torn-tail handling, the one reader, the format version
and the rule for whether a file belongs to a run are
:mod:`repro.exec.durability`'s, shared with fuzz checkpoints; this module
is only the campaign record codec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.analysis.outcomes import OutcomeClass
from repro.bugs.campaign import InjectionResult
from repro.bugs.models import BugModel, BugSpec
from repro.core.config import CoreConfig
from repro.core.cpu import RunResult
from repro.core.rrs.signals import ArrayName, SignalKind
from repro.exec.durability import (
    FORMAT_VERSION,
    CheckpointError,
    SealedLog,
    load_sealed_log,
    manifest_identity,
)
from repro.exec.resilience import TaskFailure, TaskFailureRecord
from repro.exec.tasks import InjectionTask


@dataclass(frozen=True)
class GoldenSummary:
    """The golden-run facts a checkpoint preserves (duck-types RunResult
    for :func:`repro.analysis.export.to_json`)."""

    cycles: int
    committed: int


@dataclass
class Manifest:
    """Identity of the campaign a checkpoint belongs to."""

    seed: int
    runs_per_model: int
    models: List[str]
    benchmarks: List[str]
    max_attempts: int
    goldens: Dict[str, GoldenSummary]
    #: Serialized CoreConfig (CoreConfig.to_dict()) the campaign ran at,
    #: or None for the default design point / files predating this field.
    #: Part of the manifest identity: a resume refuses to mix results
    #: produced on different core geometries.
    design_point: Optional[Dict[str, object]] = None

    def to_record(self) -> Dict[str, object]:
        record = {
            "type": "manifest",
            "version": FORMAT_VERSION,
            "seed": self.seed,
            "runs_per_model": self.runs_per_model,
            "models": self.models,
            "benchmarks": self.benchmarks,
            "max_attempts": self.max_attempts,
            "goldens": {
                name: {"cycles": g.cycles, "committed": g.committed}
                for name, g in self.goldens.items()
            },
        }
        if self.design_point is not None:
            record["design_point"] = self.design_point
        record["identity"] = manifest_identity(record)
        return record

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "Manifest":
        return cls(
            seed=record["seed"],
            runs_per_model=record["runs_per_model"],
            models=list(record["models"]),
            benchmarks=list(record["benchmarks"]),
            max_attempts=record["max_attempts"],
            goldens={
                name: GoldenSummary(entry["cycles"], entry["committed"])
                for name, entry in record["goldens"].items()
            },
            # Absent in files written before design points existed (and in
            # default-config campaigns, whose manifests stay byte-stable).
            design_point=record.get("design_point"),
        )


def spec_to_dict(spec: BugSpec) -> Dict[str, object]:
    return {
        "model": spec.model.value,
        "inject_cycle": spec.inject_cycle,
        "array": spec.array.value if spec.array is not None else None,
        "kind": spec.kind.value if spec.kind is not None else None,
        "xor_mask": spec.xor_mask,
    }


def spec_from_dict(data: Dict[str, object]) -> BugSpec:
    return BugSpec(
        model=BugModel(data["model"]),
        inject_cycle=data["inject_cycle"],
        array=ArrayName(data["array"]) if data["array"] is not None else None,
        kind=SignalKind(data["kind"]) if data["kind"] is not None else None,
        xor_mask=data["xor_mask"],
    )


def result_to_dict(result: InjectionResult) -> Dict[str, object]:
    return {
        "benchmark": result.benchmark,
        "spec": spec_to_dict(result.spec),
        "activated": result.activated,
        "activation_cycle": result.activation_cycle,
        "outcome": result.outcome.value,
        "manifestation_cycle": result.manifestation_cycle,
        "final_cycle": result.final_cycle,
        "persists": result.persists,
        "idld_cycle": result.idld_cycle,
        "bv_cycle": result.bv_cycle,
        "counter_cycle": result.counter_cycle,
        "eot_detected": result.eot_detected,
        "sim_wall_ns": result.sim_wall_ns,
        "warm_start_cycles_skipped": result.warm_start_cycles_skipped,
        "early_terminated_cycle": result.early_terminated_cycle,
    }


def result_from_dict(data: Dict[str, object]) -> InjectionResult:
    return InjectionResult(
        benchmark=data["benchmark"],
        spec=spec_from_dict(data["spec"]),
        activated=data["activated"],
        activation_cycle=data["activation_cycle"],
        outcome=OutcomeClass(data["outcome"]),
        manifestation_cycle=data["manifestation_cycle"],
        final_cycle=data["final_cycle"],
        persists=data["persists"],
        idld_cycle=data["idld_cycle"],
        bv_cycle=data["bv_cycle"],
        counter_cycle=data["counter_cycle"],
        eot_detected=data["eot_detected"],
        # Measurement metadata that early v2 checkpoints may lack; absent
        # keys default rather than fail so those files keep resuming.
        sim_wall_ns=data.get("sim_wall_ns"),
        warm_start_cycles_skipped=data.get("warm_start_cycles_skipped", 0),
        early_terminated_cycle=data.get("early_terminated_cycle"),
    )


class CheckpointWriter(SealedLog):
    """The campaign codec over a :class:`~repro.exec.durability.SealedLog`:
    a fresh file starts with the campaign :class:`Manifest`, then one
    ``result`` record per completed task and one ``failure`` record per
    quarantined task."""

    def begin(self, manifest: Manifest) -> None:
        super().begin(manifest.to_record())

    def write_result(self, task: InjectionTask, result: InjectionResult) -> None:
        self.append(
            {
                "type": "result",
                "index": task.index,
                "key": task.key,
                "run_index": task.run_index,
                "derived_seed": task.derived_seed,
                "result": result_to_dict(result),
            }
        )

    def write_failure(self, task: InjectionTask, failure: TaskFailure) -> None:
        """Record one quarantined task so a resume skips it."""
        self.append(
            {
                "type": "failure",
                "index": task.index,
                "key": task.key,
                "benchmark": getattr(task, "benchmark", None),
                "failure": failure.to_record(),
            }
        )


def decode_record(
    record: Dict[str, object]
) -> Union[Tuple[int, InjectionResult], TaskFailureRecord]:
    """One campaign data record, decoded: a ``result`` record as
    ``(index, InjectionResult)``, a ``failure`` record as its
    :class:`TaskFailureRecord`. Raises when a field does not decode, which
    every reader counts as a damaged line."""
    key, index = record["key"], record["index"]
    if record["type"] == "result":
        return index, result_from_dict(record["result"])
    return TaskFailureRecord(
        key=key,
        index=index,
        benchmark=record.get("benchmark"),
        failure=TaskFailure.from_record(record["failure"]),
    )


def load_checkpoint_full(
    path: str,
) -> Tuple[
    Manifest,
    Dict[str, Tuple[int, InjectionResult]],
    Dict[str, TaskFailureRecord],
]:
    """Load a checkpoint: manifest, completed results, quarantined tasks.

    Returns ``(manifest, key -> (index, result), key -> failure record)``,
    each record decoded once by :func:`decode_record`. Integrity checks
    and deduplication are
    :func:`~repro.exec.durability.load_sealed_log`'s: a torn final line is
    dropped, any other damage (a record that does not decode included)
    raises :class:`CheckpointError` with its line number, as does a
    manifest that does not decode (line 1), and a later result for a
    quarantined key (a retry that eventually succeeded) supersedes the
    failure.
    """
    manifest, done, failures = load_sealed_log(path, "manifest", decode_record)
    try:
        return Manifest.from_record(manifest), done, failures
    except Exception as exc:
        raise CheckpointError(
            f"{path}:1: corrupt record (undecodable manifest record "
            f"({type(exc).__name__}))"
        ) from None


def manifest_for(
    seed: int,
    runs_per_model: int,
    models: List[BugModel],
    benchmarks: List[str],
    max_attempts: int,
    goldens: Dict[str, RunResult],
    config: Optional[CoreConfig] = None,
) -> Manifest:
    return Manifest(
        seed=seed,
        runs_per_model=runs_per_model,
        models=[m.value for m in models],
        benchmarks=list(benchmarks),
        max_attempts=max_attempts,
        goldens={
            name: GoldenSummary(g.cycles, g.committed)
            for name, g in goldens.items()
        },
        design_point=None if config is None else config.to_dict(),
    )


def comparable(manifest: Dict[str, object]) -> Dict[str, object]:
    """A manifest record as a resume compares it: a campaign run at
    the default geometry writes no design point, which keeps its manifest
    bytes stable, so an absent one reads as ``CoreConfig()``'s."""
    if manifest.get("type") != "manifest" or "design_point" in manifest:
        return manifest
    return dict(manifest, design_point=CoreConfig().to_dict())
