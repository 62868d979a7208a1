"""Design-space sweep harness (``repro sweep``).

Runs one injection campaign per *design point* — the cross product of
rename width x free-list discipline x recovery strategy — through the
same engine the single-point campaign uses (same task derivation, fault
tolerance, durability and warm-start machinery per cell), then prints:

* a per-cell table: detection coverage, mean IDLD latency, outcome mix;
* the Table II-shaped RTL overhead report for every width in the sweep.

Each cell can write its own JSONL checkpoint under ``--checkpoint-dir``,
the only file a sweep writes; the manifests carry the cell's serialized
design point, so a resume of the wrong cell's file is refused rather than
silently blending geometries. Results are bit-identical for any
``--jobs`` value, exactly as for ``repro campaign``.

Example::

    repro sweep --widths 1,4 --runs 4 --scale 0.25
    repro sweep --widths 1,2,4,8 --disciplines fifo,stack \
        --recoveries checkpoint,rob-walk,checkpoint-free \
        --runs 10 --jobs 4 --checkpoint-dir sweep-ckpt/
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.cli import (
    StopGuard,
    add_fault_args,
    add_jobs_arg,
    add_seed_arg,
    add_workload_args,
    policy_from_args,
    print_quarantine,
    run_args_error,
    run_guarded,
)
from repro.core.config import (
    FREE_LIST_DISCIPLINES,
    RECOVERY_STRATEGIES,
    paper_rrs_config,
)
from repro.rtl.report import format_table_ii
from repro.rtl.rrs_design import evaluate_width
from repro.workloads import WORKLOADS, parse_benchmarks


def _parse_csv(text: str, known: Tuple[str, ...], flag: str) -> List[str]:
    values = [v.strip() for v in text.split(",") if v.strip()]
    unknown = [v for v in values if v not in known]
    if unknown:
        raise ValueError(
            f"{flag}: unknown value(s) {', '.join(unknown)} "
            f"(known: {', '.join(known)})"
        )
    if not values:
        raise ValueError(f"{flag}: no values given")
    return values


def _parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description=(
            "Run the injection campaign across a design-space matrix of "
            "width x free-list discipline x recovery strategy."
        ),
    )
    parser.add_argument(
        "--widths",
        default="1,2,4,8",
        help="comma-separated rename widths [1,2,4,8]",
    )
    parser.add_argument(
        "--disciplines",
        default=",".join(FREE_LIST_DISCIPLINES),
        help=f"free-list disciplines [{','.join(FREE_LIST_DISCIPLINES)}]",
    )
    parser.add_argument(
        "--recoveries",
        default=",".join(RECOVERY_STRATEGIES),
        help=f"recovery strategies [{','.join(RECOVERY_STRATEGIES)}]",
    )
    add_workload_args(parser, runs=4, benchmarks="crc32,qsort")
    add_seed_arg(parser)
    add_jobs_arg(parser)
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        dest="checkpoint_dir",
        help="write one JSONL checkpoint per cell under this directory "
        "(sweep-w<width>-<discipline>-<recovery>.jsonl)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume cells whose checkpoint file in --checkpoint-dir "
        "holds a run, skipping their completed injections",
    )
    # Accepted and ignored: a sweep writes nothing to the perf trajectory,
    # and the benchmark's sweep-cells workload still passes it.
    parser.add_argument(
        "--no-bench", action="store_true", help=argparse.SUPPRESS
    )
    add_fault_args(parser)
    return parser.parse_args(argv)


def cell_checkpoint_path(
    directory: str, width: int, discipline: str, recovery: str
) -> str:
    """Canonical per-cell checkpoint filename under ``directory``."""
    return os.path.join(
        directory, f"sweep-w{width}-{discipline}-{recovery}.jsonl"
    )


def _cell_row(
    width: int, discipline: str, recovery: str, campaign
) -> Dict[str, object]:
    coverage = campaign.coverage()
    latencies = campaign.detection_latencies("idld")
    outcomes: Dict[str, int] = {}
    for result in campaign.results:
        key = result.outcome.value
        outcomes[key] = outcomes.get(key, 0) + 1
    return {
        "width": width,
        "discipline": discipline,
        "recovery": recovery,
        "injections": len(campaign.results),
        "activated": sum(1 for r in campaign.results if r.activated),
        "quarantined": campaign.quarantined,
        "idld": coverage["idld"],
        "bv": coverage["bv"],
        "end_of_test": coverage["end_of_test"],
        "idld_latency_mean": (
            sum(latencies) / len(latencies) if latencies else None
        ),
        "outcomes": outcomes,
    }


def format_sweep_table(rows: List[Dict[str, object]]) -> List[str]:
    """Render the per-cell summary, one line per design point."""
    lines = [
        "Design-space sweep -- per-cell detection coverage and latency",
        f"{'W':>2} {'FL':>5} {'recovery':>15} {'inj':>4} {'act':>4} "
        f"{'IDLD':>6} {'BV':>6} {'EoT':>6} {'lat':>7}  outcomes",
    ]
    for row in rows:
        latency = row["idld_latency_mean"]
        latency_s = f"{latency:7.1f}" if latency is not None else f"{'-':>7}"
        outcome_s = " ".join(
            f"{name}:{count}"
            for name, count in sorted(row["outcomes"].items())
        )
        quarantined = (
            f" [{row['quarantined']} quarantined]"
            if row["quarantined"]
            else ""
        )
        lines.append(
            f"{row['width']:>2} {row['discipline']:>5} "
            f"{row['recovery']:>15} {row['injections']:>4} "
            f"{row['activated']:>4} {row['idld']:6.1%} {row['bv']:6.1%} "
            f"{row['end_of_test']:6.1%} {latency_s}  {outcome_s}"
            f"{quarantined}"
        )
    return lines


def sweep_main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        widths = [
            int(v) for v in args.widths.split(",") if v.strip()
        ]
        disciplines = _parse_csv(
            args.disciplines, FREE_LIST_DISCIPLINES, "--disciplines"
        )
        recoveries = _parse_csv(
            args.recoveries, RECOVERY_STRATEGIES, "--recoveries"
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if not widths or any(w < 1 for w in widths):
        print(f"--widths must be positive integers, got {args.widths!r}",
              file=sys.stderr)
        return 2
    cells = [
        (width, discipline, recovery)
        for width in widths
        for discipline in disciplines
        for recovery in recoveries
    ]
    configs = []
    for width, discipline, recovery in cells:
        try:
            configs.append(paper_rrs_config(width, discipline, recovery))
        except ValueError as exc:
            print(f"--widths: width {width}: {exc}", file=sys.stderr)
            return 2
    error = run_args_error(args)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    if args.resume and not args.checkpoint_dir:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    try:
        names = parse_benchmarks(args.benchmarks)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2

    from repro.exec.backends import make_backend
    from repro.exec.durability import SHUTDOWN_EXIT_CODE
    from repro.exec.engine import run_engine

    backend = make_backend(args.jobs, policy_from_args(args))
    if args.checkpoint_dir:
        os.makedirs(args.checkpoint_dir, exist_ok=True)

    rows: List[Dict[str, object]] = []
    flags = f"--checkpoint-dir {args.checkpoint_dir} --resume"
    # One guard for the whole cell loop: a stop between two cells unwinds
    # like one inside a cell, and the interrupted cell gets no table row.
    with StopGuard("sweep", flags if args.checkpoint_dir else None) as guard:
        programs = {name: WORKLOADS[name](scale=args.scale) for name in names}
        started = time.time()
        for number, (cell, config) in enumerate(zip(cells, configs), 1):
            width, discipline, recovery = cell
            checkpoint_path = None
            resume = False
            if args.checkpoint_dir:
                checkpoint_path = cell_checkpoint_path(
                    args.checkpoint_dir, width, discipline, recovery
                )
                # A cell stopped in set-up leaves its file empty: it
                # starts afresh.
                resume = (
                    args.resume
                    and os.path.exists(checkpoint_path)
                    and os.path.getsize(checkpoint_path) > 0
                )
            print(
                f"[{number}/{len(cells)}] width={width} "
                f"discipline={discipline} recovery={recovery} "
                f"(design point {config.digest()})",
                file=sys.stderr,
            )
            campaign, code = run_guarded(
                run_engine,
                programs,
                runs_per_model=args.runs,
                seed=args.seed,
                config=config,
                backend=backend,
                checkpoint_path=checkpoint_path,
                resume=resume,
                observers=[guard],
                checkpoint_fsync=args.checkpoint_fsync,
            )
            if code:
                return code
            rows.append(_cell_row(width, discipline, recovery, campaign))
            if campaign.quarantined:
                print_quarantine(campaign.failures)
    if guard.stopped:
        return SHUTDOWN_EXIT_CODE

    print("\n".join(format_sweep_table(rows)))
    print()
    # The RTL cost model depends only on width, so one Table II block
    # covers every (discipline, recovery) cell at that width.
    print("\n".join(format_table_ii([evaluate_width(w) for w in widths])))
    elapsed = time.time() - started
    total = sum(row["injections"] for row in rows)
    print(
        f"\nsweep: {len(rows)} design points, {total} injections in "
        f"{elapsed:.1f}s (jobs={args.jobs})",
        file=sys.stderr,
    )
    return 1 if any(row["quarantined"] for row in rows) else 0


if __name__ == "__main__":
    sys.exit(sweep_main())
