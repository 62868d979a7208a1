"""Self-contained repro artifacts for fuzz findings.

An artifact is one JSON file holding everything needed to re-execute a
fuzz input bit-identically — the program genome, the full core
configuration, the (optional) armed bug spec — plus the recorded oracle
verdict and coverage signature. ``repro fuzz --replay a.json`` and the
pytest corpus loader (tests/test_corpus.py) rebuild the run from the file
alone and assert the verdict still holds, which turns every past finding
(and every interesting corpus seed) into a permanent regression test.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.bugs.models import BugSpec
from repro.core.config import CoreConfig
from repro.exec.checkpoint import spec_from_dict, spec_to_dict
from repro.fuzz.genome import (
    ProgramGenome,
    build_program,
    genome_from_dict,
    genome_to_dict,
)
from repro.fuzz.oracle import OracleReport, evaluate

#: Artifact format identity; readers reject anything else.
ARTIFACT_FORMAT = "idld-fuzz-repro"
ARTIFACT_VERSION = 1


class ArtifactError(RuntimeError):
    """Raised on malformed or unsupported artifact files."""


# -- the artifact ------------------------------------------------------------


@dataclass(frozen=True)
class ReproArtifact:
    """One self-contained finding (or corpus seed)."""

    name: str
    genome: ProgramGenome
    config: CoreConfig
    verdict: OracleReport
    bug: Optional[BugSpec] = None
    seed: Optional[int] = None
    origin: str = "fuzz"

    @property
    def artifact_id(self) -> str:
        """Content-derived identity (stable across re-discoveries)."""
        payload = json.dumps(
            {
                "genome": genome_to_dict(self.genome),
                "config": self.config.to_dict(),
                "bug": spec_to_dict(self.bug) if self.bug else None,
            },
            sort_keys=True,
        )
        return hashlib.blake2b(payload.encode(), digest_size=6).hexdigest()


def artifact_to_dict(artifact: ReproArtifact) -> Dict[str, object]:
    verdict = artifact.verdict.to_record()
    coverage = verdict.pop("coverage")
    return {
        "format": ARTIFACT_FORMAT,
        "version": ARTIFACT_VERSION,
        "name": artifact.name,
        "origin": artifact.origin,
        "seed": artifact.seed,
        "genome": genome_to_dict(artifact.genome),
        "config": artifact.config.to_dict(),
        "bug": spec_to_dict(artifact.bug) if artifact.bug else None,
        "verdict": verdict,
        "coverage": coverage,
    }


def artifact_from_dict(data: Dict[str, object]) -> ReproArtifact:
    if data.get("format") != ARTIFACT_FORMAT:
        raise ArtifactError(f"not a fuzz repro artifact: {data.get('format')!r}")
    if data.get("version") != ARTIFACT_VERSION:
        raise ArtifactError(f"unsupported artifact version {data.get('version')!r}")
    return ReproArtifact(
        name=data["name"],
        genome=genome_from_dict(data["genome"]),
        config=CoreConfig.from_dict(data["config"]),
        verdict=OracleReport.from_record(
            dict(data["verdict"], coverage=data.get("coverage", ()))
        ),
        bug=spec_from_dict(data["bug"]) if data.get("bug") else None,
        seed=data.get("seed"),
        origin=data.get("origin", "fuzz"),
    )


def save_artifact(artifact: ReproArtifact, directory: str) -> str:
    """Write the artifact under ``directory``; returns the file path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(
        directory, f"{artifact.name}-{artifact.artifact_id}.json"
    )
    with open(path, "w") as handle:
        json.dump(artifact_to_dict(artifact), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_artifact(path: str) -> ReproArtifact:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{path}: not valid JSON ({exc})") from exc
    try:
        return artifact_from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"{path}: malformed artifact ({exc})") from exc


def replay_artifact(artifact: ReproArtifact) -> Tuple[bool, OracleReport]:
    """Re-execute an artifact and compare against its recorded verdict.

    Matching is on the semantic outcome — ok flag, failure tuple and
    output digest. Cycle counts are informational (a future scheduling
    change may legitimately shift timing without changing the verdict).
    """
    program = build_program(artifact.genome, name=artifact.name)
    report = evaluate(program, config=artifact.config, bug=artifact.bug)
    matches = (
        report.ok == artifact.verdict.ok
        and report.failures == artifact.verdict.failures
        and report.output_sha == artifact.verdict.output_sha
    )
    return matches, report
