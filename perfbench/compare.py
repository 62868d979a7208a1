#!/usr/bin/env python3
"""Compare two sets of benchmark results (parent A, change B).

Usage::

    python3 perfbench/compare.py A1.json A2.json ... -- B1.json B2.json ...

The inputs are the result files ``run.py`` writes to ``--out``. For each
workload and end-to-end metric it prints both sides' median and
quartiles and a verdict against the metric's bound in ``BENCHMARK.json``:

* ``ok`` -- B's median is no worse than A's by more than the bound;
* ``regressed`` -- it is worse by more than the bound;
* ``unresolved`` -- A's own runs spread (quartile distance over median)
  wider than the bound, so the comparison cannot tell, unless every B
  run reads better than every A run.

It also fails a workload whose B runs failed any task, and one whose A
and B runs disagree on the digest of an iteration seed both ran. Exits 1
when anything regressed, is unresolved or failed, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: float
) -> Tuple[str, float, float]:
    """Returns ``(verdict, change, spread)``; change > 0 means B is worse."""
    a1, am, a3 = quartiles(a)
    _, bm, _ = quartiles(b)
    change = (bm - am) / am if better == "lower" else (am - bm) / am
    spread = (a3 - a1) / am
    if better == "lower":
        b_always_better = max(b) < min(a)
    else:
        b_always_better = min(b) > max(a)
    if b_always_better:
        return "ok", change, spread
    if spread > bound:
        return "unresolved", change, spread
    if change > bound:
        return "regressed", change, spread
    return "ok", change, spread


def _cell(values: Sequence[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def _load(paths: List[str]) -> Dict[str, List[dict]]:
    by_workload: Dict[str, List[dict]] = {}
    for path in paths:
        result = json.loads(Path(path).read_text())
        by_workload.setdefault(result["workload"], []).append(result)
    return by_workload


def compare(a_paths: List[str], b_paths: List[str], bench: dict) -> int:
    a_runs, b_runs = _load(a_paths), _load(b_paths)
    bad = 0
    print(
        f"{'workload':<14} {'metric':<17} {'A median [q1, q3]':>30} "
        f"{'B median [q1, q3]':>30} {'change':>8} {'spread':>7} "
        f"{'bound':>6}  verdict"
    )
    for workload in sorted(set(a_runs) | set(b_runs)):
        a, b = a_runs.get(workload, []), b_runs.get(workload, [])
        if not a or not b:
            print(f"{workload:<14} only on one side: not compared")
            bad += 1
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            av = [r["end_to_end"][name] for r in a]
            bv = [r["end_to_end"][name] for r in b]
            word, change, spread = verdict(
                av, bv, metric["better"], metric["bound"]
            )
            bad += word != "ok"
            print(
                f"{workload:<14} {name:<17} {_cell(av):>30} {_cell(bv):>30} "
                f"{change:>+8.1%} {spread:>7.1%} {metric['bound']:>6.0%}"
                f"  {word}"
            )
        failed = sum(r["failed"] for r in b)
        attempted = sum(r["attempted"] for r in b)
        a_failed = sum(r["failed"] for r in a)
        print(
            f"{workload:<14} failed_frac       A {a_failed}/"
            f"{sum(r['attempted'] for r in a)}  B {failed}/{attempted}"
            f"  {'ok' if failed == 0 else 'FAILED'}"
        )
        bad += failed != 0
        mismatched, shared = _digest_mismatches(a, b)
        print(
            f"{workload:<14} digests           {shared} iteration seeds on "
            f"both sides, {mismatched} differ"
            f"  {'ok' if not mismatched else 'MISMATCH'}"
        )
        bad += mismatched != 0
    return 1 if bad else 0


def _digest_mismatches(a: List[dict], b: List[dict]) -> Tuple[int, int]:
    seen: Dict[str, str] = {}
    for run in a:
        seen.update(run["digests"])
    shared = mismatched = 0
    for run in b:
        for seed, digest in run["digests"].items():
            if seed in seen:
                shared += 1
                mismatched += seen[seed] != digest
    return mismatched, shared


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    a_paths, b_paths = argv[:split], argv[split + 1:]
    if not a_paths or not b_paths:
        print("need result files on both sides of --", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(a_paths, b_paths, bench)


if __name__ == "__main__":
    sys.exit(main())
