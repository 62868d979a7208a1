"""``repro checkpoint`` — operate on durable campaign/fuzz artifacts.

Subcommands over the JSONL checkpoint files both engines write:

* ``inspect PATH``    — manifest identity + done/quarantined/remaining counts.
* ``verify PATH``     — full CRC + structure scan; nonzero exit on damage,
  every damaged line reported with its line number.
* ``repair PATH``     — salvage every intact record into a fresh file
  (atomically), emitting a dropped-record report so the EXPERIMENTS.md
  exclusion rules can be applied before any figure is trusted.

Exit codes: 0 ok, 1 damage found (verify), 2 unusable input / bad usage.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from repro.exec.durability import (
    ScanReport,
    fold_checkpoint,
    manifest_problem,
    scan_checkpoint,
    write_sealed_checkpoint,
)


# -- structure decoding -------------------------------------------------------


def _decode_record(record: Dict[str, object]) -> None:
    """Raise when an intact-JSON, intact-CRC record is structurally wrong
    (damage sealed in by a faulty writer or a re-sealed hand edit). Record
    types are disjoint between the campaign and fuzz families, so one
    decoder serves both file kinds."""
    from repro.exec.resilience import TaskFailure

    kind = record.get("type")
    if kind == "result":
        from repro.exec.checkpoint import result_from_dict

        record["key"], record["index"]
        result_from_dict(record["result"])
    elif kind == "failure":
        record["key"], record["index"]
        TaskFailure.from_record(record["failure"])
    elif kind == "eval":
        from repro.fuzz.engine import _result_from_record

        _result_from_record(record)
    elif kind == "eval-failure":
        record["index"]
        TaskFailure.from_record(record["failure"])


def _manifest_problem(manifest: Dict[str, object]) -> Optional[str]:
    """Structural verdict on an intact manifest record: the loaders'
    :func:`~repro.exec.durability.manifest_problem` and, for a campaign
    manifest, full field decoding."""
    from repro.exec.checkpoint import Manifest

    problem = manifest_problem(manifest)
    if problem is None and manifest["type"] == "manifest":
        try:
            Manifest.from_record(manifest)
        except (KeyError, TypeError, ValueError) as exc:
            return str(exc) or type(exc).__name__
    return problem


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


def _cmd_inspect(args: argparse.Namespace) -> int:
    try:
        report, done, failures = fold_checkpoint(
            args.path, _decode_record, keep_records=False
        )
    except OSError as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    manifest = report.manifest
    if manifest is None:
        print(
            f"{args.path}: no readable manifest (not a checkpoint, or its "
            "first line is damaged — try `repro checkpoint verify`)",
            file=sys.stderr,
        )
        return 2
    kind = manifest.get("type")
    print(f"{args.path}: {kind} v{manifest.get('version')}")
    if manifest.get("identity") is not None:
        print(f"  identity     {manifest['identity']}")
    print(f"  seed         {manifest.get('seed')}")
    if kind == "manifest":
        models = list(manifest.get("models", []))
        benchmarks = list(manifest.get("benchmarks", []))
        total = manifest.get("runs_per_model", 0) * len(models) * len(benchmarks)
        print(f"  models       {', '.join(models)}")
        print(f"  benchmarks   {', '.join(benchmarks)}")
        print(
            f"  runs/model   {manifest.get('runs_per_model')}"
            f"  ({total} tasks)"
        )
    else:
        print(f"  batch        {manifest.get('batch')}")
        print(f"  config       {manifest.get('config_digest')}")
        bug = manifest.get("bug")
        print(f"  armed bug    {bug if bug is not None else 'none'}")
    print(f"  done         {len(done)}")
    print(f"  quarantined  {len(failures)}")
    if kind == "manifest":
        print(f"  remaining    {max(0, total - len(done) - len(failures))}")
    print(
        f"  records      {report.records} "
        f"({_type_summary(report)}; {report.sealed} crc-sealed)"
    )
    if report.issues:
        _print_issues(report, verb="damaged")
        print(
            f"  damage       {len(report.issues)} line(s) — run "
            f"`repro checkpoint verify {args.path}` / `repair`"
        )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        report = scan_checkpoint(args.path, _decode_record)
    except OSError as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    damaged = len(report.issues)
    if report.manifest is None:
        print(f"{args.path}:1: corrupt: no readable manifest record")
        damaged = max(damaged, 1)
    else:
        problem = _manifest_problem(report.manifest)
        if problem is not None:
            print(f"{args.path}:1: corrupt: {problem}")
            damaged += 1
    _print_issues(report)
    print(
        f"{args.path}: {report.records} records ({_type_summary(report)}), "
        f"{report.sealed} crc-sealed, {damaged} damaged line(s)"
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
        report, done, failures = fold_checkpoint(args.path, _decode_record)
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
    problem = _manifest_problem(report.manifest)
    if problem is not None:
        print(f"{args.path}: manifest unusable: {problem}", file=sys.stderr)
        return 2
    records = [r for r in done.values()] + [r for r in failures.values()]
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
        description="Inspect, verify and repair JSONL checkpoints.",
    )
    sub = parser.add_subparsers(dest="command")
    inspect = sub.add_parser(
        "inspect", help="manifest + done/quarantined/remaining counts"
    )
    inspect.add_argument("path", help="checkpoint file")
    inspect.set_defaults(func=_cmd_inspect)
    verify = sub.add_parser(
        "verify",
        help="full CRC + structure scan; exit 1 when any line is damaged",
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
