"""Command-line campaign harness (``idld-campaign``).

Runs the paper's experiments at a configurable scale and prints the
figure/table reports. Examples::

    idld-campaign --runs 20                     # quick pass, all figures
    idld-campaign --runs 100 --scale 2.5        # closer to paper scale
    idld-campaign --runs 100 --jobs 4           # parallel, same results
    idld-campaign --figures 3,9 --benchmarks sha,qsort
    idld-campaign --figures table2              # RTL cost model only
    idld-campaign --runs 3000 --jobs 8 --checkpoint run.jsonl
    idld-campaign --runs 3000 --jobs 8 --resume run.jsonl   # pick up a kill
    idld-campaign --from-checkpoint run.jsonl --figures 3   # report only
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.report import (
    coverage_report,
    figure3_report,
    figure4_report,
    figure5_report,
    figure8_report,
    latency_report,
)
from repro.rtl.report import table_ii_report
from repro.workloads import WORKLOADS, parse_benchmarks

#: Figure ids the reporter understands (``latency`` is the Figures 6/7
#: detection-latency summary; ``table2`` is the RTL cost model).
KNOWN_FIGURES = ("3", "4", "5", "8", "9", "10", "latency", "table2")


# -- the shared run flags -----------------------------------------------------
#
# campaign, sweep, fuzz, bench and work declare the flags they share through
# the helpers below, check them with run_args_error and act on them here, so
# one flag means the same thing, with the same checks, in every command.


def add_seed_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed", type=int, default=1, help="campaign master seed [1]"
    )


def add_jobs_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes; results are identical for any N [1]",
    )


def add_workload_args(
    parser: argparse.ArgumentParser, runs: int, benchmarks: str = "all"
) -> None:
    """``--runs``, ``--scale`` and ``--benchmarks``: what gets injected."""
    parser.add_argument(
        "--runs",
        type=int,
        default=runs,
        help=f"injections per (benchmark, bug model) pair [{runs}]",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload input-size scale factor [1.0]",
    )
    parser.add_argument(
        "--benchmarks",
        default=benchmarks,
        help=f"comma-separated benchmark names, or 'all' [{benchmarks}]",
    )


def add_snapshot_interval_arg(
    parser: argparse.ArgumentParser, default: int = 250
) -> None:
    parser.add_argument(
        "--snapshot-interval",
        type=int,
        default=default,
        metavar="K",
        help=(
            "golden-run snapshot period in cycles: each injection restores "
            "the nearest snapshot before its inject cycle and stops at "
            "provable re-convergence with the golden run, checked at every "
            "snapshot cycle; 0 runs every injection cold, from power-on to "
            "the end. Purely a throughput knob: results are bit-identical "
            f"for any K [{default}]"
        ),
    )


def add_batch_size_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--batch-size",
        type=int,
        default=8,
        metavar="N",
        help=(
            "dispatch up to N same-(benchmark, inject-window) injections "
            "per backend round trip, amortizing dispatch overhead; 1 "
            "disables batching. Results are bit-identical for any N [8]"
        ),
    )


def add_checkpoint_args(parser: argparse.ArgumentParser) -> None:
    """``--checkpoint``/``--resume``: the run's sealed JSONL log."""
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="append each completed task to this JSONL checkpoint",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help=(
            "resume an interrupted run from this checkpoint, skipping "
            "completed tasks and appending new ones to the same file"
        ),
    )


def add_progress_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--progress",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="print live progress (tasks done, throughput, ETA) to stderr "
        "[auto: on when stderr is a TTY]",
    )


def add_fault_args(parser: argparse.ArgumentParser) -> None:
    """The fault-tolerance flags shared by ``campaign``, ``sweep`` and
    ``fuzz``."""
    group = parser.add_argument_group("fault tolerance")
    group.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        dest="task_timeout",
        help="per-task wall-clock budget; an overrunning simulation is "
        "retried then quarantined (a hung worker is killed by the parent "
        "watchdog after budget + grace) [no limit]",
    )
    group.add_argument(
        "--max-task-retries",
        type=int,
        default=2,
        metavar="N",
        dest="max_task_retries",
        help="extra attempts before a failing task is quarantined [2]",
    )
    group.add_argument(
        "--strict",
        action="store_true",
        help="abort the whole run on the first quarantine instead of "
        "recording it and continuing",
    )
    group.add_argument(
        "--no-fallback-serial",
        action="store_false",
        dest="fallback_serial",
        help="fail hard when the worker pool keeps breaking instead of "
        "degrading to in-process serial execution",
    )
    group.add_argument(
        "--checkpoint-fsync",
        action="store_true",
        dest="checkpoint_fsync",
        help="fsync every checkpoint record (survives power loss, not "
        "just process kills) at an I/O cost",
    )


def policy_from_args(args: argparse.Namespace):
    """Build the FaultPolicy the CLI runs under (resilience is on by
    default here; the library default ``policy=None`` keeps the legacy
    fail-fast behavior). Raises ValueError on bad knob values."""
    from repro.exec.resilience import FaultPolicy

    return FaultPolicy(
        task_timeout_s=args.task_timeout,
        max_task_retries=args.max_task_retries,
        strict=args.strict,
        fallback_serial=args.fallback_serial,
    )


def run_args_error(
    args: argparse.Namespace, min_snapshot_interval: int = 0
) -> Optional[str]:
    """The message for the first bad value among the shared run flags the
    parser declared (the fault-tolerance group included), or None.

    Mains print it and return 2 themselves: argparse's own errors raise
    SystemExit instead. ``repro bench`` always builds snapshots, so it
    passes ``min_snapshot_interval=1``.
    """
    jobs = getattr(args, "jobs", 1)
    if jobs < 1:
        return f"--jobs must be >= 1, got {jobs}"
    interval = getattr(args, "snapshot_interval", min_snapshot_interval)
    if interval < min_snapshot_interval:
        return (
            f"--snapshot-interval must be >= {min_snapshot_interval}, "
            f"got {interval}"
        )
    batch_size = getattr(args, "batch_size", 1)
    if batch_size < 1:
        return f"--batch-size must be >= 1, got {batch_size}"
    if getattr(args, "checkpoint", None) and getattr(args, "resume", None):
        return (
            "--checkpoint and --resume are mutually exclusive "
            "(--resume keeps appending to the file it loads)"
        )
    if hasattr(args, "task_timeout"):
        try:
            policy_from_args(args)
        except ValueError as exc:
            return str(exc)
    return None


def progress_observers(args: argparse.Namespace) -> list:
    """A live progress printer when ``--progress`` asks for one, or by
    default when stderr is a terminal."""
    from repro.exec.progress import ProgressPrinter

    show = args.progress if args.progress is not None else sys.stderr.isatty()
    return [ProgressPrinter()] if show else []


def run_guarded(
    run: Callable[..., object], *args, **kwargs
) -> Tuple[object, int]:
    """``run(*args, **kwargs)`` with the errors a run reports as one stderr
    line mapped to exit code 2: returns ``(result, 0)`` or ``(None, 2)``
    on a checkpoint, I/O or fault-tolerance error."""
    from repro.exec.durability import CheckpointError
    from repro.exec.resilience import FaultToleranceError

    try:
        return run(*args, **kwargs), 0
    except (CheckpointError, OSError) as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
    except FaultToleranceError as exc:
        print(f"fault tolerance: {exc}", file=sys.stderr)
    return None, 2


def print_shutdown_notice(shutdown, checkpoint_path, subcommand) -> None:
    """One actionable stderr message for a graceful-signal stop: what was
    saved and exactly how to resume (the CLI then exits with
    :data:`~repro.exec.durability.SHUTDOWN_EXIT_CODE`)."""
    print(
        f"interrupted by {shutdown.signal_name}: stopped dispatching, "
        "drained inflight work and flushed the checkpoint",
        file=sys.stderr,
    )
    if checkpoint_path:
        print(
            f"resume with: repro {subcommand} --resume {checkpoint_path} "
            "(plus your original options)",
            file=sys.stderr,
        )
    else:
        print(
            "no --checkpoint was given, so completed work was not saved; "
            "rerun with --checkpoint PATH to make runs interruptible",
            file=sys.stderr,
        )


def print_quarantine(failures, stream=None) -> None:
    """One line per quarantined task, on stderr by default."""
    stream = stream if stream is not None else sys.stderr
    for record in failures:
        print(
            f"quarantined: task {record.key} [{record.failure.kind}] "
            f"after {record.failure.attempts} attempt(s): "
            f"{record.failure.message}",
            file=stream,
        )


def _parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="idld-campaign",
        description="Reproduce the IDLD (MICRO 2022) evaluation figures.",
    )
    add_workload_args(parser, runs=20)
    add_seed_arg(parser)
    add_jobs_arg(parser)
    add_snapshot_interval_arg(parser)
    add_batch_size_arg(parser)
    parser.add_argument(
        "--figures",
        default="3,4,5,8,9,10,table2",
        help=(
            "comma-separated figure ids to report; known ids: "
            + ",".join(KNOWN_FIGURES)
        ),
    )
    add_checkpoint_args(parser)
    parser.add_argument(
        "--from-checkpoint",
        default=None,
        metavar="PATH",
        dest="from_checkpoint",
        help="skip execution: report/export straight from a checkpoint file",
    )
    add_progress_arg(parser)
    parser.add_argument(
        "--export-csv",
        default=None,
        metavar="PATH",
        help="write per-injection results to a CSV file",
    )
    parser.add_argument(
        "--export-json",
        default=None,
        metavar="PATH",
        help="write results + aggregates to a JSON file",
    )
    add_fault_args(parser)
    return parser.parse_args(argv)


def _report(campaign, campaign_figures, args) -> None:
    reports = {
        "3": figure3_report,
        "4": figure4_report,
        "5": figure5_report,
        "8": figure8_report,
        "9": lambda c: coverage_report(c, with_bv=False),
        "10": coverage_report,
    }
    for fig in ("3", "4", "5", "8", "9", "10"):
        if fig in campaign_figures:
            print("\n".join(reports[fig](campaign)))
            print()
    if "latency" in campaign_figures:
        print("\n".join(latency_report(campaign)))
    if args.export_csv:
        from repro.analysis.export import write_csv

        write_csv(campaign, args.export_csv)
        print(f"wrote {args.export_csv}")
    if args.export_json:
        from repro.analysis.export import write_json

        write_json(campaign, args.export_json)
        print(f"wrote {args.export_json}")


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    figures = {f.strip().lower() for f in args.figures.split(",") if f.strip()}
    unknown_figures = figures - set(KNOWN_FIGURES)
    if unknown_figures:
        print(
            f"unknown figures: {', '.join(sorted(unknown_figures))} "
            f"(known: {', '.join(KNOWN_FIGURES)})",
            file=sys.stderr,
        )
        return 2
    error = run_args_error(args)
    if error is not None:
        print(error, file=sys.stderr)
        return 2

    if "table2" in figures:
        print(table_ii_report())
        print()
    campaign_figures = figures - {"table2"}
    exporting = bool(args.export_csv or args.export_json)

    if args.from_checkpoint:
        from repro.analysis.export import campaign_from_checkpoint
        from repro.exec.checkpoint import CheckpointError

        try:
            campaign = campaign_from_checkpoint(args.from_checkpoint)
        except (CheckpointError, OSError) as exc:
            print(f"cannot load checkpoint: {exc}", file=sys.stderr)
            return 2
        quarantined = (
            f", {campaign.quarantined} quarantined"
            if campaign.quarantined
            else ""
        )
        print(
            f"checkpoint: {len(campaign.results)} injections over "
            f"{len(campaign.benchmarks)} benchmarks "
            f"({campaign.never_activated} never activated{quarantined})\n"
        )
        _report(campaign, campaign_figures, args)
        if campaign.quarantined:
            print_quarantine(campaign.failures)
        return 0

    if not campaign_figures and not exporting:
        return 0

    try:
        names = parse_benchmarks(args.benchmarks)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    programs: Dict[str, object] = {
        name: WORKLOADS[name](scale=args.scale) for name in names
    }

    from repro.exec.backends import make_backend
    from repro.exec.durability import SHUTDOWN_EXIT_CODE, GracefulShutdown
    from repro.exec.engine import run_engine

    started = time.time()
    with GracefulShutdown() as shutdown:
        campaign, code = run_guarded(
            run_engine,
            programs,
            runs_per_model=args.runs,
            seed=args.seed,
            backend=make_backend(args.jobs, policy_from_args(args)),
            checkpoint_path=args.resume or args.checkpoint,
            resume=args.resume is not None,
            observers=progress_observers(args),
            snapshot_interval=args.snapshot_interval,
            checkpoint_fsync=args.checkpoint_fsync,
            shutdown=shutdown,
            batch_size=args.batch_size,
        )
    if code:
        return code
    if shutdown.requested:
        print_shutdown_notice(
            shutdown, args.resume or args.checkpoint, "campaign"
        )
        return SHUTDOWN_EXIT_CODE
    elapsed = time.time() - started
    quarantined = (
        f", {campaign.quarantined} quarantined" if campaign.quarantined else ""
    )
    print(
        f"campaign: {len(campaign.results)} injections over "
        f"{len(programs)} benchmarks in {elapsed:.1f}s "
        f"(jobs={args.jobs}, {campaign.never_activated} never activated"
        f"{quarantined})\n"
    )
    _report(campaign, campaign_figures, args)
    if campaign.quarantined:
        print_quarantine(campaign.failures)
        return 1
    return 0


def repro_main(argv: Optional[List[str]] = None) -> int:
    """The ``repro`` umbrella command: ``repro <subcommand> ...``.

    Subcommands: ``campaign`` (the injection campaign, same as the
    ``idld-campaign`` script), ``sweep`` (the campaign across a design-space
    matrix of width x free-list discipline x recovery strategy), ``fuzz``
    (coverage-guided differential fuzzing), ``checkpoint``
    (inspect/verify/repair/merge the JSONL artifacts the engines write),
    ``bench`` (the performance trajectory harness; shares the
    ``--snapshot-interval`` knob with ``campaign``) and
    the distributed campaign fabric (:mod:`repro.exec.fabric`): ``serve``
    (the shard-leasing coordinator), ``submit``/``status``/``fetch`` (post
    a campaign, watch it, download the merged artifact) and ``work`` (a
    worker executing leased shards).
    Also reachable without installation as ``python -m repro``.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    usage = (
        "usage: repro {campaign,sweep,fuzz,checkpoint,bench,serve,submit,"
        "status,fetch,work} [options]  (-h for help)"
    )
    if not argv or argv[0] in ("-h", "--help"):
        print(usage)
        return 0 if argv else 2
    command, rest = argv[0], argv[1:]
    if command == "campaign":
        return main(rest)
    if command == "sweep":
        from repro.sweep import sweep_main

        return sweep_main(rest)
    if command == "fuzz":
        from repro.fuzz.cli import fuzz_main

        return fuzz_main(rest)
    if command == "checkpoint":
        from repro.exec.cli import checkpoint_main

        return checkpoint_main(rest)
    if command == "bench":
        from repro.bench import main as bench_main

        return bench_main(rest)
    if command in ("serve", "submit", "status", "fetch", "work"):
        from repro.exec import fabric

        return {
            "serve": fabric.serve_main,
            "submit": fabric.submit_main,
            "status": fabric.status_main,
            "fetch": fabric.fetch_main,
            "work": fabric.work_main,
        }[command](rest)
    print(f"unknown subcommand {command!r}\n{usage}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
