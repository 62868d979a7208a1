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
    from repro.cli import (
        add_checkpoint_args,
        add_fault_args,
        add_jobs_arg,
        add_progress_arg,
        add_seed_arg,
    )

    parser = argparse.ArgumentParser(
        prog="repro fuzz",
        description=(
            "Coverage-guided differential fuzzing of the OoO core against "
            "the reference interpreter, the PdstID census and the "
            "IDLD/BV/Counter detectors."
        ),
    )
    add_seed_arg(parser)
    parser.add_argument(
        "--budget",
        type=int,
        default=500,
        help="total oracle evaluations to schedule [500]",
    )
    add_jobs_arg(parser)
    parser.add_argument(
        "--batch",
        type=int,
        default=32,
        help="generation size (corpus-update barrier); part of the "
        "campaign identity [32]",
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
    add_checkpoint_args(parser)
    add_progress_arg(parser)
    parser.add_argument(
        "--replay",
        nargs="+",
        default=None,
        metavar="ARTIFACT",
        help="skip fuzzing: replay these repro artifacts and verify each "
        "recorded verdict still reproduces",
    )
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

    from repro.cli import (
        policy_from_args,
        print_shutdown_notice,
        progress_observers,
        run_args_error,
        run_guarded,
    )

    error = run_args_error(args)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    if args.budget < 1:
        print(f"--budget must be >= 1, got {args.budget}", file=sys.stderr)
        return 2
    if args.batch < 1:
        print(f"--batch must be >= 1, got {args.batch}", file=sys.stderr)
        return 2

    from repro.exec.backends import make_backend
    from repro.exec.durability import SHUTDOWN_EXIT_CODE, GracefulShutdown
    from repro.fuzz.engine import run_fuzz

    with GracefulShutdown() as shutdown:
        summary, code = run_guarded(
            run_fuzz,
            seed=args.seed,
            budget=args.budget,
            backend=make_backend(args.jobs, policy_from_args(args)),
            batch=args.batch,
            shrink_budget=args.shrink_budget,
            artifacts_dir=args.artifacts,
            checkpoint_path=args.resume or args.checkpoint,
            resume=args.resume is not None,
            observers=progress_observers(args),
            save_corpus_dir=args.save_corpus,
            checkpoint_fsync=args.checkpoint_fsync,
            shutdown=shutdown,
        )
    if code:
        return code
    if shutdown.requested:
        print_shutdown_notice(shutdown, args.resume or args.checkpoint, "fuzz")
        return SHUTDOWN_EXIT_CODE

    print("\n".join(summary.report_lines()))
    print(f"elapsed: {summary.elapsed_s:.1f}s (jobs={args.jobs})")
    return 1 if summary.findings or summary.quarantined else 0


if __name__ == "__main__":
    sys.exit(fuzz_main())
