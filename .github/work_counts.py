#!/usr/bin/env python3
"""Gate on perfbench's exact work counts.

Run from the repository root, after a traced seed-1 run::

    python3 perfbench/run.py --trace 1 --seconds 1 --seed 1
    python3 .github/work_counts.py .perfbench/results

Every per-layer metric whose unit in ``BENCHMARK.json`` is ``count`` or
``cycles`` repeats exactly for a seed, so this compares each workload's
counts in ``<results>/<workload>-seed1-trace.json`` with
``.github/work-counts.json`` and exits 1 on any difference, printing the
differences and then every measured count as the file's JSON. Times,
ratios and ``bytes`` metrics are left out: a checkpoint's size moves with
the digits of its recorded wall times. A change that moves a count
updates the file and says why.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMITTED = ROOT / ".github" / "work-counts.json"
UNITS = ("count", "cycles")


def measured(results: Path) -> dict:
    """Workload -> {metric: count} from the traced seed-1 result files."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["per_layer"] if m["unit"] in UNITS]
    counts = {}
    for path in sorted(results.glob("*-seed1-trace.json")):
        result = json.loads(path.read_text())
        counts[result["workload"]] = {
            name: result["per_layer"][name] for name in names
        }
    return counts


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    counts = measured(Path(argv[0]))
    committed = json.loads(COMMITTED.read_text())
    differences = []
    for workload in sorted(set(committed) | set(counts)):
        want = committed.get(workload, {})
        got = counts.get(workload, {})
        differences += [
            f"{workload} {name}: committed {want.get(name)}, "
            f"measured {got.get(name)}"
            for name in sorted(set(want) | set(got))
            if want.get(name) != got.get(name)
        ]
    if not differences:
        print(f"work counts of {len(counts)} workloads equal {COMMITTED.name}")
        return 0
    print("\n".join(differences))
    print(json.dumps(counts, indent=2, sort_keys=True))
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
