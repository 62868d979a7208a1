"""Coverage-guided differential fuzzing of the renaming core.

Pipeline: :mod:`~repro.fuzz.genome` (mutable halting programs) →
:mod:`~repro.fuzz.oracle` (reference interpreter + PdstID census +
detector silence) → :mod:`~repro.fuzz.coverage` (RRS feature buckets) →
:mod:`~repro.fuzz.engine` (deterministic batched campaign on the
:mod:`repro.exec` backends) → :mod:`~repro.fuzz.shrink` /
:mod:`~repro.fuzz.artifacts` (minimized, replayable repro files).
"""

from repro.fuzz.artifacts import (
    ReproArtifact,
    load_artifact,
    replay_artifact,
    save_artifact,
)
from repro.fuzz.coverage import CoverageMap, CoverageProbe
from repro.fuzz.engine import FuzzCampaign, run_fuzz
from repro.fuzz.genome import (
    ProgramGenome,
    build_program,
    mutate,
    seed_genome,
    splice,
)
from repro.fuzz.oracle import OracleReport, evaluate
from repro.fuzz.shrink import shrink

__all__ = [
    "CoverageMap",
    "CoverageProbe",
    "FuzzCampaign",
    "OracleReport",
    "ProgramGenome",
    "ReproArtifact",
    "build_program",
    "evaluate",
    "load_artifact",
    "mutate",
    "replay_artifact",
    "run_fuzz",
    "save_artifact",
    "seed_genome",
    "shrink",
    "splice",
]
