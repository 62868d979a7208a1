"""``repro fuzz`` — the coverage-guided differential fuzzing CLI.

Examples::

    repro fuzz --seed 1 --budget 2000 --jobs 4          # one campaign
    repro fuzz --budget 2000 --jobs 4 --artifacts out/  # keep failing repros
    repro fuzz --budget 5000 --checkpoint fuzz.jsonl    # crash-safe
    repro fuzz --budget 5000 --resume fuzz.jsonl        # pick up a kill
    repro fuzz --replay tests/corpus/*.json             # re-verify artifacts

The same campaign (seed, budget, batch) produces bit-identical coverage,
corpus and findings for any ``--jobs`` value.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="repro fuzz",
        description=(
            "Coverage-guided differential fuzzing of the OoO core against "
            "the reference interpreter, the PdstID census and the "
            "IDLD/BV/Counter detectors."
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="campaign master seed [1]"
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=500,
        help="total oracle evaluations to schedule [500]",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes; results are identical for any N [1]",
    )
    parser.add_argument(
        "--batch",
        type=int,
        default=32,
        help="generation size (corpus-update barrier); part of the "
        "campaign identity [32]",
    )
    parser.add_argument(
        "--snapshot-interval",
        type=int,
        default=0,
        metavar="K",
        help=(
            "accepted for parity with 'repro campaign'; the fuzz oracle "
            "runs each generated program once, so warm-start snapshots "
            "never apply and this has no effect [0]"
        ),
    )
    parser.add_argument(
        "--shrink-budget",
        type=int,
        default=250,
        dest="shrink_budget",
        help="max oracle evaluations spent minimizing each finding [250]",
    )
    parser.add_argument(
        "--artifacts",
        default=None,
        metavar="DIR",
        help="write failing repro artifacts (JSON) into this directory",
    )
    parser.add_argument(
        "--save-corpus",
        default=None,
        metavar="DIR",
        dest="save_corpus",
        help="write the final corpus (interesting passing inputs) as "
        "artifacts into this directory",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="append each completed evaluation to this JSONL checkpoint",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help="resume an interrupted campaign from this checkpoint, "
        "replaying recorded evaluations instead of re-simulating them",
    )
    parser.add_argument(
        "--progress",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="print live progress to stderr [auto: on when stderr is a TTY]",
    )
    parser.add_argument(
        "--replay",
        nargs="+",
        default=None,
        metavar="ARTIFACT",
        help="skip fuzzing: replay these repro artifacts and verify each "
        "recorded verdict still reproduces",
    )
    from repro.cli import add_fault_args

    add_fault_args(parser)
    return parser.parse_args(argv)


def _replay(paths: List[str]) -> int:
    from repro.fuzz.artifacts import ArtifactError, load_artifact, replay_artifact

    failures = 0
    for path in paths:
        try:
            artifact = load_artifact(path)
        except (ArtifactError, OSError) as exc:
            print(f"FAIL {path}: {exc}")
            failures += 1
            continue
        matches, report = replay_artifact(artifact)
        recorded = artifact.verdict
        want = "pass" if recorded.ok else "+".join(recorded.failures)
        if matches:
            print(f"ok   {path}: {want}")
        else:
            print(
                f"FAIL {path}: recorded {want!r} but replay produced "
                f"{report.verdict!r}"
            )
            failures += 1
    total = len(paths)
    print(f"replayed {total} artifacts, {failures} mismatches")
    return 1 if failures else 0


def fuzz_main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)

    if args.replay is not None:
        return _replay(args.replay)

    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    if args.budget < 1:
        print(f"--budget must be >= 1, got {args.budget}", file=sys.stderr)
        return 2
    if args.batch < 1:
        print(f"--batch must be >= 1, got {args.batch}", file=sys.stderr)
        return 2
    if args.snapshot_interval < 0:
        print(
            f"--snapshot-interval must be >= 0, got {args.snapshot_interval}",
            file=sys.stderr,
        )
        return 2
    if args.checkpoint and args.resume:
        print(
            "--checkpoint and --resume are mutually exclusive "
            "(--resume keeps appending to the file it loads)",
            file=sys.stderr,
        )
        return 2

    from repro.cli import policy_from_args, print_shutdown_notice
    from repro.exec.backends import ProcessPoolBackend, SerialBackend
    from repro.exec.checkpoint import CheckpointError
    from repro.exec.durability import SHUTDOWN_EXIT_CODE, GracefulShutdown
    from repro.exec.progress import ProgressPrinter
    from repro.exec.resilience import FaultToleranceError
    from repro.fuzz.engine import run_fuzz

    try:
        policy = policy_from_args(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    backend = (
        ProcessPoolBackend(args.jobs, policy=policy)
        if args.jobs > 1
        else SerialBackend(policy=policy)
    )
    show_progress = (
        args.progress if args.progress is not None else sys.stderr.isatty()
    )
    observers = [ProgressPrinter()] if show_progress else []

    try:
        with GracefulShutdown() as shutdown:
            summary = run_fuzz(
                seed=args.seed,
                budget=args.budget,
                backend=backend,
                batch=args.batch,
                shrink_budget=args.shrink_budget,
                artifacts_dir=args.artifacts,
                checkpoint_path=args.resume or args.checkpoint,
                resume=args.resume is not None,
                observers=observers,
                save_corpus_dir=args.save_corpus,
                snapshot_interval=args.snapshot_interval,
                checkpoint_fsync=args.checkpoint_fsync,
                shutdown=shutdown,
            )
    except (CheckpointError, OSError) as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 2
    except FaultToleranceError as exc:
        print(f"fault tolerance: {exc}", file=sys.stderr)
        return 2
    if shutdown.requested:
        print_shutdown_notice(shutdown, args.resume or args.checkpoint, "fuzz")
        return SHUTDOWN_EXIT_CODE

    print("\n".join(summary.report_lines()))
    print(f"elapsed: {summary.elapsed_s:.1f}s (jobs={args.jobs})")
    return 1 if summary.findings or summary.quarantined else 0


if __name__ == "__main__":
    sys.exit(fuzz_main())
