"""The benchmark's workloads: how each runs, and how its outputs are read.

Every workload is one public CLI entry point called with stable flags
only (``--runs --scale --seed --benchmarks --checkpoint --export-*``, the
sweep axes and ``--budget``), serially (``--jobs 1``). One *iteration* is
one such call; ``run.py`` repeats iterations, each with the next seed,
for the measured window.

Sizes were picked so a ``full`` iteration takes 3-7 s on a 2-vCPU
x86-64 VM, which leaves at least three iterations in a 25 s window;
``smoke`` is for the harness tests.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Checkpointed task indices re-run on the cold path (1 in 32).
COLD_SAMPLE_EVERY = 32


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # "campaign" | "sweep" | "fuzz"
    sizes: Dict[str, Dict[str, object]]

    def argv(self, size: str, seed: int) -> List[str]:
        """CLI arguments of one iteration, relative to its work directory."""
        p = self.sizes[size]
        common = ["--seed", str(seed), "--jobs", "1"]
        if self.entry == "campaign":
            return common + [
                "--runs", str(p["runs"]),
                "--scale", str(p["scale"]),
                "--benchmarks", p["benchmarks"],
                "--checkpoint", "checkpoint.jsonl",
                "--export-csv", "results.csv",
                "--export-json", "results.json",
            ]
        if self.entry == "sweep":
            return common + [
                "--widths", p["widths"],
                "--disciplines", p["disciplines"],
                "--recoveries", p["recoveries"],
                "--runs", str(p["runs"]),
                "--scale", str(p["scale"]),
                "--benchmarks", p["benchmarks"],
                "--checkpoint-dir", "cells",
                "--no-bench",
            ]
        return common + [
            "--budget", str(p["budget"]),
            "--checkpoint", "fuzz.jsonl",
        ]

    def scale(self, size: str) -> float:
        return float(self.sizes[size].get("scale", 1.0))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "campaign",
            "campaign",
            {
                "full": {"runs": 4, "scale": 1, "benchmarks": "all"},
                "smoke": {"runs": 1, "scale": 1, "benchmarks": "sha,fft"},
            },
        ),
        Workload(
            "campaign-long",
            "campaign",
            {
                "full": {
                    "runs": 8,
                    "scale": 2,
                    "benchmarks": "dijkstra,patricia",
                },
                "smoke": {"runs": 1, "scale": 1.5, "benchmarks": "sha"},
            },
        ),
        Workload(
            "sweep-cells",
            "sweep",
            {
                "full": {
                    "widths": "4,8",
                    "disciplines": "stack",
                    "recoveries": "rob-walk,checkpoint-free",
                    "runs": 1,
                    "scale": 1,
                    "benchmarks": "all",
                },
                "smoke": {
                    "widths": "4",
                    "disciplines": "stack",
                    "recoveries": "rob-walk",
                    "runs": 1,
                    "scale": 1,
                    "benchmarks": "sha",
                },
            },
        ),
        Workload(
            "fuzz",
            "fuzz",
            {"full": {"budget": 500}, "smoke": {"budget": 40}},
        ),
    )
}


@dataclass
class Outputs:
    """What one iteration's files say about its work and its results."""

    tasks: int  # scheduled injections or evaluations
    completed: int
    quarantined: int
    findings: int  # fuzz evaluations the oracle failed
    sim_cycles: int  # cycles simulated (or fast-forwarded) by the tasks
    digest: str
    checkpoints: List[str]
    checkpoint_records: int
    checkpoint_bytes: int
    export_bytes: int


def _file_size(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _checkpoint_paths(workload: Workload, workdir: str) -> List[str]:
    if workload.entry == "sweep":
        return sorted(glob.glob(os.path.join(workdir, "cells", "*.jsonl")))
    name = "fuzz.jsonl" if workload.entry == "fuzz" else "checkpoint.jsonl"
    path = os.path.join(workdir, name)
    return [path] if os.path.exists(path) else []


def _records(path: str) -> List[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def read_outputs(workload: Workload, size: str, workdir: str) -> Outputs:
    """Count an iteration's work and digest its results from its files.

    The campaign digest is sha256 of the CSV export rebuilt from the
    checkpoint (cells in file-name order for a sweep); the fuzz digest is
    sha256 of the sorted checkpoint records, which carry no timing.
    """
    paths = _checkpoint_paths(workload, workdir)
    records = sum(len(_records(p)) - 1 for p in paths)
    ckpt_bytes = sum(_file_size(p) for p in paths)
    if workload.entry == "fuzz":
        return _fuzz_outputs(workload, size, paths, records, ckpt_bytes)
    from repro.analysis.export import campaign_from_checkpoint, to_csv
    from repro.exec.checkpoint import load_checkpoint_full

    digest = hashlib.sha256()
    tasks = completed = quarantined = sim_cycles = 0
    for path in paths:
        manifest, done, failed = load_checkpoint_full(path)
        tasks += (
            manifest.runs_per_model
            * len(manifest.models)
            * len(manifest.benchmarks)
        )
        completed += len(done)
        quarantined += len(failed)
        for _, result in done.values():
            end = result.early_terminated_cycle or result.final_cycle
            sim_cycles += end - result.warm_start_cycles_skipped
        digest.update(to_csv(campaign_from_checkpoint(path)).encode())
    export_bytes = sum(
        _file_size(os.path.join(workdir, name))
        for name in ("results.csv", "results.json")
    )
    return Outputs(
        tasks=tasks,
        completed=completed,
        quarantined=quarantined,
        findings=0,
        sim_cycles=sim_cycles,
        digest=digest.hexdigest(),
        checkpoints=paths,
        checkpoint_records=records,
        checkpoint_bytes=ckpt_bytes,
        export_bytes=export_bytes,
    )


def _fuzz_outputs(
    workload: Workload,
    size: str,
    paths: List[str],
    records: int,
    ckpt_bytes: int,
) -> Outputs:
    evals: Dict[int, dict] = {}
    failed = set()
    lines: List[str] = []
    for path in paths:
        for record in _records(path):
            lines.append(json.dumps(record, sort_keys=True))
            if record.get("type") == "eval":
                evals[record["index"]] = record
            elif record.get("type") == "eval-failure":
                failed.add(record["index"])
    failed -= set(evals)
    return Outputs(
        tasks=int(workload.sizes[size]["budget"]),
        completed=len(evals),
        quarantined=len(failed),
        # No bug is armed, so any oracle failure is a finding.
        findings=sum(1 for r in evals.values() if not r["ok"]),
        sim_cycles=sum(r["cycles"] for r in evals.values()),
        digest=hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest(),
        checkpoints=paths,
        checkpoint_records=records,
        checkpoint_bytes=ckpt_bytes,
        export_bytes=0,
    )


class ColdOracle:
    """Re-runs sampled checkpointed injections on the cold path.

    Each sampled task is executed with ``execute_task`` and no snapshot
    provider, against a golden from ``run_golden``, and compared with the
    checkpointed result (equality ignores timing metadata). Programs and
    goldens are cached across the iterations of a run.
    """

    def __init__(self) -> None:
        self._programs: Dict[Tuple[str, float], object] = {}
        self._goldens: Dict[Tuple[str, float, Optional[str]], object] = {}

    def check(self, checkpoint: str, scale: float) -> Tuple[int, int]:
        """Returns ``(checked, mismatches)`` for one campaign checkpoint."""
        from repro.bugs.campaign import run_golden
        from repro.bugs.models import BugModel
        from repro.core.config import CoreConfig
        from repro.exec.checkpoint import load_checkpoint_full
        from repro.exec.tasks import execute_task, generate_tasks
        from repro.workloads import WORKLOADS as PROGRAMS

        manifest, done, _ = load_checkpoint_full(checkpoint)
        config = (
            CoreConfig.from_dict(manifest.design_point)
            if manifest.design_point is not None
            else None
        )
        digest = config.digest() if config is not None else None
        tasks = generate_tasks(
            manifest.benchmarks,
            manifest.runs_per_model,
            [BugModel(m) for m in manifest.models],
            manifest.seed,
            manifest.max_attempts,
            config=config,
        )
        checked = mismatches = 0
        for task in tasks:
            if task.index % COLD_SAMPLE_EVERY or task.key not in done:
                continue
            bench = task.benchmark
            if (bench, scale) not in self._programs:
                self._programs[bench, scale] = PROGRAMS[bench](scale=scale)
            program = self._programs[bench, scale]
            if (bench, scale, digest) not in self._goldens:
                self._goldens[bench, scale, digest] = run_golden(program, config)
            golden = self._goldens[bench, scale, digest]
            checked += 1
            if golden.cycles != manifest.goldens[bench].cycles:
                mismatches += 1
                continue
            if execute_task(task, program, golden, config) != done[task.key][1]:
                mismatches += 1
        return checked, mismatches
