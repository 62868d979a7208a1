#!/usr/bin/env python3
"""The repository benchmark: public-CLI workloads timed from outside.

Run from the repository root::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 25
    python3 perfbench/run.py --workload fuzz --trace 1   # per-layer metrics
    python3 perfbench/run.py                             # every workload

A run repeats *iterations* of one workload for ``--seconds`` seconds (at
least three; two traced pairs with ``--trace 1``), closed loop: one
client, the next iteration starts when the previous one returns.
Iteration ``i`` uses workload seed ``seed * 1000 + i``, so a seed fixes
the inputs. Each iteration is a fresh ``python3 perfbench/iteration.py``
process in its own work directory under ``.perfbench/`` that calls one
CLI entry point at ``--jobs 1``. After the window, a 1-in-32 sample of
every campaign iteration's tasks is re-run on the cold path and compared
with the checkpoint.

End-to-end metrics are medians over the run's untraced iterations, with
times corrected to a nominal host speed: each iteration times a fixed
pure-Python loop just before and after the CLI call and its times are
scaled by ``PROBE_NOMINAL_S / probe_s`` (uncorrected values are printed
and kept in the result file). With
``--trace 1`` each iteration is followed by a traced twin (same seed,
layer wrappers and stage profiling on); the twins' digests must match,
and the run reports the per-layer metrics instead, writing the spans to
``<out>/trace-<workload>.jsonl``. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full result goes to ``<out>/<workload>-seed<S>[-trace].json``.

Exits 2 without a result when the checkout has no ``src/repro`` to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

#: Untraced iterations per run at minimum (set-up is a median of these).
MIN_ITERATIONS = 3
#: Untraced + traced pairs per ``--trace 1`` run at minimum.
MIN_PAIRS = 2
#: Wall-clock cap on one iteration process.
ITERATION_TIMEOUT_S = 150
#: ``host_probe_s()`` on the quiet 2-vCPU x86-64 VM the bounds were set on.
PROBE_NOMINAL_S = 0.17


class IterationError(RuntimeError):
    """An iteration process crashed or left no record."""


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _parse_args(argv: List[str], bench: dict) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run the repository benchmark (see perfbench/README.md).",
    )
    parser.add_argument(
        "--workload",
        choices=sorted(WORKLOADS),
        default=None,
        help="workload to run [all, one after another]",
    )
    parser.add_argument("--seed", type=int, default=1, help="workload seed [1]")
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(bench["run_seconds"]),
        help=f"measured window per run [{bench['run_seconds']}]",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="1: traced run reporting per-layer metrics [0]",
    )
    parser.add_argument(
        "--size",
        choices=("full", "smoke"),
        default="full",
        help="iteration size; smoke is for the harness tests [full]",
    )
    parser.add_argument(
        "--out",
        default=str(SCRATCH / "results"),
        help="directory for result JSON and span files [.perfbench/results]",
    )
    return parser.parse_args(argv)


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(SCRATCH)
    return env


def run_iteration(
    workload,
    size: str,
    seed: int,
    workdir: Path,
    trace: bool,
    spans: Optional[Path] = None,
    iteration: int = 0,
) -> dict:
    """One iteration process plus what its files say (see workloads.py)."""
    from workloads import read_outputs

    workdir.mkdir(parents=True)
    spec = {
        "entry": workload.entry,
        "argv": workload.argv(size, seed),
        "trace": trace,
        "iteration": iteration,
        "spans": str(spans) if spans is not None else None,
        "result": str(workdir / "record.json"),
        "src": str(SRC),
    }
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    log_path = workdir / "log.txt"
    with open(log_path, "w") as log:
        proc = subprocess.run(
            [sys.executable, str(HERE / "iteration.py"), str(spec_path)],
            cwd=workdir,
            env=_child_env(),
            stdout=log,
            stderr=subprocess.STDOUT,
            timeout=ITERATION_TIMEOUT_S,
        )
    record_path = workdir / "record.json"
    if proc.returncode != 0 or not record_path.exists():
        tail = log_path.read_text()[-2000:]
        raise IterationError(
            f"{workload.name} seed {seed}: iteration exited "
            f"{proc.returncode}\n{tail}"
        )
    record = json.loads(record_path.read_text())
    record["seed"] = seed
    record.update(asdict(read_outputs(workload, size, str(workdir))))
    return record


def failures_of(record: dict) -> int:
    """Failed work of one iteration: quarantined, missing or failing
    tasks, plus one for a nonzero CLI exit."""
    missing = record["tasks"] - record["completed"] - record["quarantined"]
    return (
        record["quarantined"]
        + max(0, missing)
        + record["findings"]
        + (1 if record["rc"] != 0 else 0)
    )


def end_to_end(
    iterations: List[dict], corrected: bool = True
) -> Dict[str, float]:
    """Medians over the untraced iterations of one run.

    ``corrected`` scales every time by ``PROBE_NOMINAL_S / probe_s``: the
    seconds the iteration would have taken with the host at its nominal
    speed (see iteration.host_probe_s).
    """
    def median(values) -> float:
        return statistics.median(list(values))

    def scale(record: dict) -> float:
        return PROBE_NOMINAL_S / record["probe_s"] if corrected else 1.0

    def busy(record: dict) -> float:
        return (record["wall_s"] - record["setup_s"]) * scale(record)

    return {
        "wall_s": median(r["wall_s"] * scale(r) for r in iterations),
        "setup_s": median(r["setup_s"] * scale(r) for r in iterations),
        "tasks_per_s": median(r["completed"] / busy(r) for r in iterations),
        "sim_cycles_per_s": median(
            r["sim_cycles"] / busy(r) for r in iterations
        ),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in iterations),
    }


def run_workload(
    workload,
    size: str,
    seed: int,
    seconds: float,
    trace: bool,
    out: Path,
    scratch: Path,
) -> dict:
    """Measure one workload for ``seconds`` and check its outputs."""
    from workloads import ColdOracle

    spans = out / f"trace-{workload.name}.jsonl" if trace else None
    if spans is not None and spans.exists():
        spans.unlink()
    iterations: List[dict] = []
    traced: List[dict] = []
    digest_mismatches = 0
    minimum = MIN_PAIRS if trace else MIN_ITERATIONS
    started = time.monotonic()
    while True:
        i = len(iterations)
        sub_seed = seed * 1000 + i
        record = run_iteration(workload, size, sub_seed, scratch / str(i), False)
        iterations.append(record)
        if trace:
            twin = run_iteration(
                workload, size, sub_seed, scratch / f"{i}-trace", True,
                spans=spans, iteration=i,
            )
            # The untraced wall time at the twin's host speed.
            twin["untraced_wall_s"] = (
                record["wall_s"] * twin["probe_s"] / record["probe_s"]
            )
            if twin["digest"] != record["digest"]:
                digest_mismatches += 1
            traced.append(twin)
        elapsed = time.monotonic() - started
        # Start another iteration only if it should end inside the window.
        if len(iterations) >= minimum and elapsed * (i + 2) / (i + 1) > seconds:
            break

    oracle = ColdOracle()
    cold_checked = cold_mismatches = 0
    if workload.entry != "fuzz":
        for record in iterations:
            for path in record["checkpoints"]:
                checked, mismatched = oracle.check(path, workload.scale(size))
                cold_checked += checked
                cold_mismatches += mismatched

    everything = iterations + traced
    attempted = sum(r["tasks"] for r in everything)
    failed = (
        sum(failures_of(r) for r in everything)
        + cold_mismatches
        + digest_mismatches
    )
    result = {
        "workload": workload.name,
        "seed": seed,
        "size": size,
        "seconds": seconds,
        "trace": trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "cold_checked": cold_checked,
        "cold_mismatches": cold_mismatches,
        "digest_mismatches": digest_mismatches,
        "digest": iterations[0]["digest"],
        "digests": {str(r["seed"]): r["digest"] for r in iterations},
        "end_to_end": end_to_end(iterations),
        "end_to_end_raw": end_to_end(iterations, corrected=False),
        "iterations": [_summary(r) for r in iterations],
    }
    if trace:
        from layers import layer_metrics

        result["per_layer"] = layer_metrics(traced)
        result["task_samples"] = sum(len(r["task_ms"]) for r in traced)
        result["traced_iterations"] = [_summary(r) for r in traced]
    return result


def _summary(record: dict) -> dict:
    keys = (
        "seed", "rc", "wall_s", "setup_s", "probe_s", "peak_rss_mb", "tasks",
        "completed", "quarantined", "findings", "sim_cycles", "digest",
    )
    return {key: record[key] for key in keys}


def report(result: dict, bench: dict) -> dict:
    """Print the run for people, then return the driver's result line."""
    trace = result["trace"]
    listed = bench["per_layer"] if trace else bench["end_to_end"]
    values = result["per_layer"] if trace else result["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {', '.join(missing)}")
    print(
        f"workload {result['workload']}  seed {result['seed']}  "
        f"size {result['size']}  iterations {len(result['iterations'])}"
        + ("  (each with a traced twin)" if trace else "")
    )
    for metric in bench["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        print(
            f"  {name:<34} {result['end_to_end'][name]:.6g} {unit}"
            f"  (uncorrected {result['end_to_end_raw'][name]:.6g} {unit})"
        )
    if trace:
        for metric in listed:
            name, unit = metric["name"], metric["unit"]
            print(f"  {name:<34} {values[name]:.6g} {unit}")
        if "exec.task_p99_ms" in values:
            print(f"  {'exec.task_p99_ms':<34} {values['exec.task_p99_ms']:.6g} ms")
        print(f"  {'exec.task samples':<34} {result['task_samples']}")
    frac = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(
        f"  {'failed_frac':<34} {frac:.6g} "
        f"({result['failed']}/{result['attempted']}; cold checks "
        f"{result['cold_checked']}, mismatches {result['cold_mismatches']})"
    )
    print(f"  {'digest':<34} {result['digest']}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in listed
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench = load_benchmark()
    args = _parse_args(sys.argv[1:] if argv is None else argv, bench)
    from workloads import WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    scratch = SCRATCH / f"run-{os.getpid()}"
    all_correct = True
    try:
        for name in names:
            if scratch.exists():
                shutil.rmtree(scratch)
            result = run_workload(
                WORKLOADS[name], args.size, args.seed, args.seconds,
                bool(args.trace), out, scratch,
            )
            suffix = "-trace" if args.trace else ""
            path = out / f"{name}-seed{args.seed}{suffix}.json"
            path.write_text(json.dumps(result, indent=2) + "\n")
            line = report(result, bench)
            print(json.dumps(line), flush=True)
            all_correct = all_correct and result["correct"]
    except IterationError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
