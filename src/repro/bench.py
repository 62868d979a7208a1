"""Performance benchmark harness (``python -m repro.bench``).

Measures the two throughput numbers the campaign engine lives on:

* **golden cycles/s** — raw simulator speed on each suite benchmark, and
* **injections/s** — end-to-end injection throughput, cold (every run from
  power-on) versus warm-started from the snapshot provider
  (:mod:`repro.bugs.snapshot`) versus differential (warm start plus
  convergence-terminated suffixes, :mod:`repro.bugs.differential`), with
  the one-time provider
  construction cost reported separately.

Every invocation appends one entry to ``BENCH_core.json`` at the output
path (default: repo root), so the file accumulates a performance
trajectory across commits rather than overwriting history. The warm and
cold runs execute identical task lists and the harness asserts their
results are equal before reporting, so a reported speedup is never bought
with a behavior change.

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
from repro.core.config import CoreConfig
from repro.core.cpu import (
    OoOCore,
    disable_stage_profiling,
    enable_stage_profiling,
)
from repro.exec.tasks import execute_task, generate_tasks
from repro.workloads import WORKLOADS

#: Current on-disk schema of BENCH_core.json.
SCHEMA_VERSION = 1

#: Default capture period; small enough that the mean warm restore point
#: sits within interval/2 cycles of the injection point.
DEFAULT_INTERVAL = 25


def _parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Benchmark golden-run and injection throughput.",
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=8,
        help="injections per (benchmark, bug model) pair [8]",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload input-size scale factor [1.0]",
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="campaign master seed [1]"
    )
    parser.add_argument(
        "--snapshot-interval",
        type=int,
        default=DEFAULT_INTERVAL,
        metavar="K",
        help=f"warm-start snapshot period in cycles [{DEFAULT_INTERVAL}]",
    )
    parser.add_argument(
        "--benchmarks",
        default="all",
        help="comma-separated benchmark names, or 'all'",
    )
    parser.add_argument(
        "--differential",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "measure the differential executor (convergence-terminated "
            "suffixes) alongside cold/warm; same flag as "
            "repro campaign (--no-differential to skip those passes) [on]"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "after the timed passes, replay the fastest pass once more "
            "with per-stage wall-time attribution and append the bucket "
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
    differential: bool = True,
    profile: Optional[Dict[str, int]] = None,
) -> Dict[str, object]:
    """Benchmark one workload: golden speed + cold vs warm injections.

    With ``differential`` the convergence-terminating executor is measured
    as a third pass (and asserted bit-identical to cold). With a
    ``profile`` accumulator, the fastest measured pass is replayed once
    more under per-stage wall-time attribution; the replay is asserted
    result-identical to the cold pass and is never part of the timed
    columns.
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

    started = time.perf_counter()
    warm = [
        execute_task(t, program, golden, config, snapshots=provider)
        for t in tasks
    ]
    warm_wall = time.perf_counter() - started

    if cold != warm:  # timing fields are compare=False by design
        raise AssertionError(
            f"{name}: warm-started results differ from cold results"
        )

    diff_provider = None
    if differential:
        started = time.perf_counter()
        diff_provider = SnapshotProvider(
            program, interval, config=config, differential=True
        )
        diff_provider_wall = time.perf_counter() - started

        started = time.perf_counter()
        diff = [
            execute_task(
                t, program, golden, config,
                snapshots=diff_provider, differential=True,
            )
            for t in tasks
        ]
        diff_wall = time.perf_counter() - started

        if cold != diff:
            raise AssertionError(
                f"{name}: differential results differ from cold results"
            )

    injections = len(tasks)
    entry["injections"] = injections
    entry["cold_wall_s"] = cold_wall
    entry["cold_inj_per_s"] = injections / cold_wall if cold_wall > 0 else 0.0
    entry["warm_wall_s"] = warm_wall
    entry["warm_inj_per_s"] = injections / warm_wall if warm_wall > 0 else 0.0
    entry["speedup"] = cold_wall / warm_wall if warm_wall > 0 else 0.0
    entry["warm_cycles_skipped"] = sum(
        r.warm_start_cycles_skipped for r in warm
    )
    if differential:
        entry["diff_provider_wall_s"] = diff_provider_wall
        entry["diff_wall_s"] = diff_wall
        entry["diff_inj_per_s"] = (
            injections / diff_wall if diff_wall > 0 else 0.0
        )
        entry["diff_speedup"] = (
            cold_wall / diff_wall if diff_wall > 0 else 0.0
        )
        entry["diff_early_terminated"] = sum(
            1 for r in diff if r.early_terminated_cycle is not None
        )
    if profile is not None:
        # Dedicated attribution replay of the fastest measured pass. The
        # profiled cores pay two perf_counter_ns calls per stage, so this
        # pass is deliberately outside every timed column; asserting its
        # results against the cold pass keeps the instrumentation honest.
        accumulator = enable_stage_profiling()
        try:
            profiled = [
                execute_task(
                    t, program, golden, config,
                    snapshots=(
                        diff_provider if differential else provider
                    ),
                    differential=differential,
                )
                for t in tasks
            ]
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


def append_entry(path: str, entry: Dict[str, object]) -> None:
    """Append one run's entry to the trajectory file, creating it if new."""
    data = {"schema": SCHEMA_VERSION, "entries": []}
    if os.path.exists(path):
        with open(path) as handle:
            data = json.load(handle)
        if data.get("schema") != SCHEMA_VERSION:
            raise ValueError(
                f"{path}: unsupported schema {data.get('schema')!r}"
            )
    data["entries"].append(entry)
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    if args.snapshot_interval < 1:
        print(
            f"--snapshot-interval must be >= 1, got {args.snapshot_interval}",
            file=sys.stderr,
        )
        return 2
    if args.benchmarks == "all":
        names = list(WORKLOADS)
    else:
        names = [n.strip() for n in args.benchmarks.split(",")]
        unknown = [n for n in names if n not in WORKLOADS]
        if unknown:
            print(f"unknown benchmarks: {', '.join(unknown)}", file=sys.stderr)
            return 2

    profile: Optional[Dict[str, int]] = {} if args.profile else None
    per_benchmark: Dict[str, Dict[str, object]] = {}
    for name in names:
        program = WORKLOADS[name](scale=args.scale)
        per_benchmark[name] = bench_benchmark(
            name, program, args.runs, args.seed, args.snapshot_interval,
            differential=args.differential, profile=profile,
        )
        b = per_benchmark[name]
        diff_cols = (
            f"diff {b['diff_inj_per_s']:6.2f} inj/s | "
            f"speedup {b['speedup']:.2f}x/{b['diff_speedup']:.2f}x "
            f"({b['diff_early_terminated']}/{b['injections']} early, "
            if args.differential
            else f"speedup {b['speedup']:.2f}x ("
        )
        print(
            f"{name:>14}: golden {b['golden_cycles_per_s']:>9.0f} cyc/s | "
            f"cold {b['cold_inj_per_s']:6.2f} inj/s | "
            f"warm {b['warm_inj_per_s']:6.2f} inj/s | "
            + diff_cols
            + f"provider {b['provider_wall_s']:.2f}s, "
            f"{b['provider_snapshots']} snaps)",
            file=sys.stderr,
        )

    total_inj = sum(b["injections"] for b in per_benchmark.values())
    cold_wall = sum(b["cold_wall_s"] for b in per_benchmark.values())
    warm_wall = sum(b["warm_wall_s"] for b in per_benchmark.values())
    aggregate = {
        "injections": total_inj,
        "cold_wall_s": cold_wall,
        "cold_inj_per_s": total_inj / cold_wall if cold_wall > 0 else 0.0,
        "warm_wall_s": warm_wall,
        "warm_inj_per_s": total_inj / warm_wall if warm_wall > 0 else 0.0,
        "speedup": cold_wall / warm_wall if warm_wall > 0 else 0.0,
    }
    if args.differential:
        diff_wall = sum(b["diff_wall_s"] for b in per_benchmark.values())
        aggregate["diff_wall_s"] = diff_wall
        aggregate["diff_inj_per_s"] = (
            total_inj / diff_wall if diff_wall > 0 else 0.0
        )
        aggregate["diff_speedup"] = (
            cold_wall / diff_wall if diff_wall > 0 else 0.0
        )
    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seed": args.seed,
        "scale": args.scale,
        "runs_per_model": args.runs,
        "snapshot_interval": args.snapshot_interval,
        "differential": args.differential,
        "environment": environment_provenance(),
        "benchmarks": per_benchmark,
        "aggregate": aggregate,
    }
    if profile is not None:
        cycles = profile.pop("cycles", 0)
        entry["stage_profile"] = {
            "buckets_ns": profile,
            "profiled_cycles": cycles,
            "pass": "differential" if args.differential else "warm",
        }
    append_entry(args.output, entry)
    print(json.dumps(entry, indent=2, sort_keys=True))
    tail = (
        f"warm {aggregate['speedup']:.2f}x, "
        f"differential {aggregate['diff_speedup']:.2f}x "
        if args.differential
        else f"warm {aggregate['speedup']:.2f}x "
    )
    print(
        f"aggregate speedup: {tail}"
        f"({total_inj} injections; appended to {args.output})",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
