"""``repro checkpoint`` — verify and repair durable campaign/fuzz artifacts.

Subcommands over the JSONL checkpoint files both engines write. Each reads
its file as a resume does, through
:func:`~repro.exec.durability.fold_checkpoint` with the engine's
``decode_record``, so a record that a resume refuses is a damaged line
here too:

* ``verify PATH``     — manifest identity, seed and done/quarantined/
  remaining counts, then the full CRC + structure scan; nonzero exit on
  damage, every damaged line reported with its line number.
* ``repair PATH``     — salvage every intact record into a fresh file
  (atomically), emitting a dropped-record report so the EXPERIMENTS.md
  exclusion rules can be applied before any figure is trusted.

Exit codes: 0 ok, 1 damage found (verify), 2 unusable input / bad usage.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.exec.durability import (
    RECORD_TYPES,
    ScanReport,
    fold_checkpoint,
    manifest_problem,
    write_sealed_checkpoint,
)


def _decoder(keep: bool) -> Callable[[Dict[str, object]], object]:
    """Decode each data record with its engine's ``decode_record`` (the
    fold has refused a record outside its manifest's family already) and
    keep the raw record (``repair``) or nothing (``verify``)."""
    from repro.exec.checkpoint import decode_record as campaign
    from repro.fuzz.engine import decode_record as fuzz

    def decode(record: Dict[str, object]) -> object:
        in_campaign = record["type"] in RECORD_TYPES["manifest"]
        (campaign if in_campaign else fuzz)(record)
        return record if keep else None

    return decode


def _check_manifest(
    manifest: Dict[str, object]
) -> Tuple[Optional[str], Optional[int]]:
    """``(problem, tasks)`` for an intact manifest record: why no loader
    takes it (:func:`~repro.exec.durability.manifest_problem`, or a
    campaign manifest that does not decode), or None; and a campaign's
    task count (None for a fuzz manifest, which names no budget)."""
    from repro.exec.checkpoint import Manifest

    problem = manifest_problem(manifest)
    if problem is not None or manifest["type"] != "manifest":
        return problem, None
    try:
        m = Manifest.from_record(manifest)
        return None, m.runs_per_model * len(m.models) * len(m.benchmarks)
    except Exception as exc:
        return f"undecodable manifest record ({type(exc).__name__})", None


def _print_issues(report: ScanReport, verb: str = "corrupt") -> None:
    for issue in report.issues:
        tag = "torn tail" if issue.torn_tail else verb
        print(f"{report.path}:{issue.lineno}: {tag}: {issue.reason}")


def _type_summary(report: ScanReport) -> str:
    if not report.by_type:
        return "no data records"
    return ", ".join(
        f"{count} {kind}" for kind, count in sorted(report.by_type.items())
    )


# -- subcommands --------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        report, done, failures = fold_checkpoint(
            args.path, _decoder(keep=False)
        )
    except OSError as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    damaged = len(report.issues)
    manifest = report.manifest
    if manifest is None:
        print(f"{args.path}:1: corrupt: no readable manifest record")
        damaged = max(damaged, 1)
    else:
        problem, tasks = _check_manifest(manifest)
        print(f"{args.path}: {manifest['type']} v{manifest.get('version')}")
        print(f"  identity     {manifest['identity']}")
        print(f"  seed         {manifest.get('seed')}")
        print(f"  done         {len(done)}")
        print(f"  quarantined  {len(failures)}")
        if tasks is not None:
            remaining = max(0, tasks - len(done) - len(failures))
            print(f"  remaining    {remaining}")
        if problem is not None:
            print(f"{args.path}:1: corrupt: {problem}")
            damaged += 1
    _print_issues(report)
    print(
        f"{args.path}: {report.records} records ({_type_summary(report)}), "
        f"{damaged} damaged line(s)"
    )
    if damaged:
        print(
            f"damage found: salvage intact records with "
            f"`repro checkpoint repair {args.path}`",
            file=sys.stderr,
        )
        return 1
    print(f"{args.path}: ok")
    return 0


def _cmd_repair(args: argparse.Namespace) -> int:
    out = args.output or args.path + ".repaired"
    try:
        report, done, failures = fold_checkpoint(
            args.path, _decoder(keep=True)
        )
    except OSError as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    if report.manifest is None:
        print(
            f"{args.path}: the manifest line itself is damaged; there is "
            "no campaign identity to anchor a repair to",
            file=sys.stderr,
        )
        return 2
    problem, _ = _check_manifest(report.manifest)
    if problem is not None:
        print(f"{args.path}: manifest unusable: {problem}", file=sys.stderr)
        return 2
    records = list(done.values()) + list(failures.values())
    try:
        write_sealed_checkpoint(out, report.manifest, records)
    except OSError as exc:
        print(f"cannot write {out}: {exc}", file=sys.stderr)
        return 2
    _print_issues(report, verb="dropped")
    print(
        f"{out}: salvaged {len(done)} result(s) + {len(failures)} "
        f"quarantine record(s); dropped {len(report.issues)} damaged line(s)"
    )
    if report.interior_issues:
        print(
            "interior records were dropped: before trusting any figure, "
            "apply the EXPERIMENTS.md repair-exclusion rule",
            file=sys.stderr,
        )
    return 0


# -- entry point --------------------------------------------------------------


def checkpoint_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro checkpoint",
        description="Verify and repair JSONL checkpoints.",
    )
    sub = parser.add_subparsers(dest="command")
    verify = sub.add_parser(
        "verify",
        help="manifest + done/quarantined/remaining counts, then a full "
        "CRC + structure scan; exit 1 when any line is damaged",
    )
    verify.add_argument("path", help="checkpoint file")
    verify.set_defaults(func=_cmd_verify)
    repair = sub.add_parser(
        "repair",
        help="salvage intact records into a fresh file + dropped report",
    )
    repair.add_argument("path", help="damaged checkpoint file")
    repair.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="PATH",
        help="where to write the repaired checkpoint [PATH.repaired]",
    )
    repair.set_defaults(func=_cmd_repair)
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(checkpoint_main())
