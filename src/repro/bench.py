"""Performance benchmark harness (``python -m repro.bench``).

Measures the two throughput numbers the campaign engine lives on:

* **golden cycles/s** — raw simulator speed on each suite benchmark, and
* **injections/s** — end-to-end injection throughput, cold (every run from
  power-on to the end) versus snapshot-driven (warm start plus
  convergence-terminated suffixes, :mod:`repro.bugs.differential`), with
  the one-time provider construction cost reported separately.

Every invocation appends one entry to ``BENCH_core.json`` at the output
path (default: repo root), so the file accumulates a performance
trajectory across commits rather than overwriting history. Both passes
execute identical task lists and the harness asserts their results are
equal before reporting, so a reported speedup is never bought with a
behavior change.

This is the per-benchmark throughput probe. The end-to-end benchmark of
whole CLI campaigns, with its per-layer trace, is ``perfbench/`` (see
``perfbench/README.md``).

Example::

    PYTHONPATH=src python -m repro.bench --runs 8
    PYTHONPATH=src python -m repro.bench --runs 2 --scale 0.5  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional

from repro.bugs.snapshot import SnapshotProvider
from repro.cli import (
    add_seed_arg,
    add_snapshot_interval_arg,
    add_workload_args,
    run_args_error,
)
from repro.core.config import CoreConfig
from repro.core.cpu import (
    OoOCore,
    disable_stage_profiling,
    enable_stage_profiling,
)
from repro.exec.tasks import execute_task, generate_tasks
from repro.workloads import WORKLOADS, parse_benchmarks

#: On-disk schema of BENCH_core.json, the only one read: two timed
#: injection passes per entry (cold, snapshot-driven). Entries carried
#: over from schema 1 (three passes, with warm-only) are stamped
#: ``migrated_from_schema: 1`` and keep their warm columns under
#: ``schema1_warm``.
SCHEMA_VERSION = 2

#: Default capture period; small enough that the mean restore point
#: sits within interval/2 cycles of the injection point.
DEFAULT_INTERVAL = 25


def _parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Benchmark golden-run and injection throughput.",
    )
    add_workload_args(parser, runs=8)
    add_seed_arg(parser)
    add_snapshot_interval_arg(parser, default=DEFAULT_INTERVAL)
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "after the timed passes, replay the snapshot-driven pass once "
            "more with per-stage wall-time attribution and append the bucket "
            "totals as stage_profile (the profiled pass is never part of "
            "the headline timings)"
        ),
    )
    parser.add_argument(
        "--output",
        default="BENCH_core.json",
        metavar="PATH",
        help="JSON trajectory file to append to [BENCH_core.json]",
    )
    return parser.parse_args(argv)


def environment_provenance() -> Dict[str, object]:
    """Where this entry's numbers came from: interpreter, host, commit.

    Perf trajectories are only comparable within one environment; every
    entry records enough provenance to partition the trajectory when the
    machine or interpreter changes underneath it.
    """
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python_implementation": platform.python_implementation(),
        "python_version": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "git_commit": commit,
    }


def _time_golden(program, config: Optional[CoreConfig]) -> Dict[str, object]:
    core = OoOCore(program, config=config)
    started = time.perf_counter()
    result = core.run()
    wall = time.perf_counter() - started
    return {
        "golden_cycles": result.cycles,
        "golden_wall_s": wall,
        "golden_cycles_per_s": result.cycles / wall if wall > 0 else 0.0,
    }


def bench_benchmark(
    name: str,
    program,
    runs_per_model: int,
    seed: int,
    interval: int,
    config: Optional[CoreConfig] = None,
    profile: Optional[Dict[str, int]] = None,
) -> Dict[str, object]:
    """Benchmark one workload: golden speed + cold vs snapshot injections.

    With a ``profile`` accumulator, the snapshot-driven pass is replayed
    once more under per-stage wall-time attribution; the replay is
    asserted result-identical to the cold pass and is never part of the
    timed columns.
    """
    entry = _time_golden(program, config)

    started = time.perf_counter()
    provider = SnapshotProvider(program, interval, config=config)
    entry["provider_wall_s"] = time.perf_counter() - started
    entry["provider_snapshots"] = provider.count
    golden = provider.golden

    tasks = generate_tasks([name], runs_per_model, seed=seed)

    started = time.perf_counter()
    cold = [execute_task(t, program, golden, config) for t in tasks]
    cold_wall = time.perf_counter() - started

    def snapshot_pass():
        return [
            execute_task(t, program, golden, config, snapshots=provider)
            for t in tasks
        ]

    started = time.perf_counter()
    results = snapshot_pass()
    wall = time.perf_counter() - started

    if cold != results:  # timing fields are compare=False by design
        raise AssertionError(
            f"{name}: snapshot-driven results differ from cold results"
        )

    injections = len(tasks)
    entry["injections"] = injections
    entry["cold_wall_s"] = cold_wall
    entry["cold_inj_per_s"] = injections / cold_wall if cold_wall > 0 else 0.0
    entry["wall_s"] = wall
    entry["inj_per_s"] = injections / wall if wall > 0 else 0.0
    entry["speedup"] = cold_wall / wall if wall > 0 else 0.0
    entry["cycles_skipped"] = sum(
        r.warm_start_cycles_skipped for r in results
    )
    entry["early_terminated"] = sum(
        1 for r in results if r.early_terminated_cycle is not None
    )
    if profile is not None:
        # Dedicated attribution replay. The profiled cores time every
        # stage call, so this pass is deliberately outside every timed
        # column; asserting its results against the cold pass keeps the
        # instrumentation honest.
        accumulator = enable_stage_profiling()
        try:
            profiled = snapshot_pass()
        finally:
            stage = dict(accumulator)
            disable_stage_profiling()
        if cold != profiled:
            raise AssertionError(
                f"{name}: profiled results differ from cold results"
            )
        for bucket, value in stage.items():
            profile[bucket] = profile.get(bucket, 0) + value
    return entry


def read_trajectory(path: str) -> List[Dict[str, object]]:
    """Every entry of a trajectory file; any schema but
    :data:`SCHEMA_VERSION` is refused."""
    with open(path) as handle:
        data = json.load(handle)
    schema = data.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported schema {schema!r}")
    return data["entries"]


def append_entry(path: str, entry: Dict[str, object]) -> None:
    """Append one run's entry to the trajectory file, creating it if new."""
    entries = read_trajectory(path) if os.path.exists(path) else []
    entries.append(entry)
    with open(path, "w") as handle:
        json.dump(
            {"schema": SCHEMA_VERSION, "entries": entries},
            handle,
            indent=2,
            sort_keys=True,
        )
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    # The snapshot pass needs snapshots: no cold-only K = 0 here.
    error = run_args_error(args, min_snapshot_interval=1)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    try:
        names = parse_benchmarks(args.benchmarks)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2

    profile: Optional[Dict[str, int]] = {} if args.profile else None
    per_benchmark: Dict[str, Dict[str, object]] = {}
    for name in names:
        program = WORKLOADS[name](scale=args.scale)
        per_benchmark[name] = bench_benchmark(
            name, program, args.runs, args.seed, args.snapshot_interval,
            profile=profile,
        )
        b = per_benchmark[name]
        print(
            f"{name:>14}: golden {b['golden_cycles_per_s']:>9.0f} cyc/s | "
            f"cold {b['cold_inj_per_s']:6.2f} inj/s | "
            f"snapshot {b['inj_per_s']:6.2f} inj/s | "
            f"speedup {b['speedup']:.2f}x "
            f"({b['early_terminated']}/{b['injections']} early, "
            f"provider {b['provider_wall_s']:.2f}s, "
            f"{b['provider_snapshots']} snaps)",
            file=sys.stderr,
        )

    total_inj = sum(b["injections"] for b in per_benchmark.values())
    cold_wall = sum(b["cold_wall_s"] for b in per_benchmark.values())
    wall = sum(b["wall_s"] for b in per_benchmark.values())
    aggregate = {
        "injections": total_inj,
        "cold_wall_s": cold_wall,
        "cold_inj_per_s": total_inj / cold_wall if cold_wall > 0 else 0.0,
        "wall_s": wall,
        "inj_per_s": total_inj / wall if wall > 0 else 0.0,
        "speedup": cold_wall / wall if wall > 0 else 0.0,
    }
    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seed": args.seed,
        "scale": args.scale,
        "runs_per_model": args.runs,
        "snapshot_interval": args.snapshot_interval,
        "environment": environment_provenance(),
        "benchmarks": per_benchmark,
        "aggregate": aggregate,
    }
    if profile is not None:
        cycles = profile.pop("cycles", 0)
        entry["stage_profile"] = {
            "buckets_ns": profile,
            "profiled_cycles": cycles,
        }
    append_entry(args.output, entry)
    print(json.dumps(entry, indent=2, sort_keys=True))
    print(
        f"aggregate speedup: {aggregate['speedup']:.2f}x "
        f"({total_inj} injections; appended to {args.output})",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
