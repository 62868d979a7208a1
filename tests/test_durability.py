"""Artifact-integrity scenarios: checkpoint format v2, verify/repair/merge,
single-writer locking and graceful shutdown.

The checker mindset applied to our own persistence layer: every scenario
damages (or contends for) a real checkpoint produced by a real small
campaign and asserts the durability contract — corruption (an unsealed
record included) is reported with line numbers, repair + resume
reproduces the uninterrupted run bit for bit, and a second writer never
interleaves. The
contract of the sealed log itself is checked on a campaign checkpoint and
on a fuzz checkpoint alike, since both engines write through it.
"""

from __future__ import annotations

import glob
import itertools
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import pytest

from repro.bugs.models import PRIMARY_MODELS
from repro.exec.backends import ProcessPoolBackend, SerialBackend
from repro.exec.checkpoint import (
    CheckpointError,
    load_checkpoint_full,
    manifest_for,
    result_to_dict,
)
from repro.exec.cli import checkpoint_main
from repro.exec.durability import (
    CheckpointLock,
    CheckpointLockedError,
    GracefulShutdown,
    SHUTDOWN_EXIT_CODE,
    SealedLog,
    atomic_write_text,
    canonical_winner,
    crc_of,
    fold_checkpoint,
    lock_path_for,
    merge_shard,
    scan_checkpoint,
    seal_record,
)
from repro.exec.engine import run_engine
from repro.exec.tasks import generate_tasks
from repro.fuzz.engine import load_fuzz_checkpoint_full, run_fuzz
from repro.workloads import WORKLOADS

RUNS = 2  # 2 runs x 3 models x 1 benchmark = 6 tasks
SEED = 7
FUZZ_BUDGET = 8
FUZZ_BATCH = 4


@pytest.fixture(scope="module")
def tiny_suite():
    return {"bitcount": WORKLOADS["bitcount"](scale=0.25)}


@pytest.fixture(scope="module")
def tiny_tasks(tiny_suite):
    return generate_tasks(list(tiny_suite), RUNS, list(PRIMARY_MODELS), SEED, 6)


@pytest.fixture(scope="module")
def checkpointed(tiny_suite, tmp_path_factory):
    """One finished campaign plus the v2 checkpoint it wrote (read-only:
    tests copy it before damaging it)."""
    path = tmp_path_factory.mktemp("durability") / "clean.jsonl"
    campaign = run_engine(
        tiny_suite,
        RUNS,
        seed=SEED,
        backend=SerialBackend(),
        checkpoint_path=str(path),
    )
    return str(path), campaign


@pytest.fixture(scope="module")
def fuzz_checkpointed(tmp_path_factory):
    """One finished fuzz campaign's checkpoint (read-only, like
    ``checkpointed``)."""
    path = tmp_path_factory.mktemp("durability") / "fuzz.jsonl"
    run_fuzz(
        seed=SEED, budget=FUZZ_BUDGET, batch=FUZZ_BATCH,
        checkpoint_path=str(path),
    )
    return str(path)


@dataclass
class Log:
    """A finished sealed log plus how its engine loads and resumes it."""

    path: str
    records: int  # data records, manifest excluded
    load: Callable[[str], tuple]
    resume: Callable[[str], object]
    other: str  # a finished log of the other engine


@pytest.fixture(params=["campaign", "fuzz"])
def sealed(request, tiny_suite):
    if request.param == "campaign":
        path, campaign = request.getfixturevalue("checkpointed")
        return Log(
            path,
            len(campaign.results),
            load_checkpoint_full,
            lambda p: run_engine(
                tiny_suite, RUNS, seed=SEED, backend=SerialBackend(),
                checkpoint_path=p, resume=True,
            ),
            request.getfixturevalue("fuzz_checkpointed"),
        )
    return Log(
        request.getfixturevalue("fuzz_checkpointed"),
        FUZZ_BUDGET,
        load_fuzz_checkpoint_full,
        lambda p: run_fuzz(
            seed=SEED, budget=FUZZ_BUDGET, batch=FUZZ_BATCH,
            checkpoint_path=p, resume=True,
        ),
        request.getfixturevalue("checkpointed")[0],
    )


def _comparable(result):
    record = result_to_dict(result)
    record.pop("sim_wall_ns")  # a measurement, not a simulation outcome
    return record


def _copy(src: str, dst) -> str:
    with open(src) as handle:
        text = handle.read()
    dst = str(dst)
    with open(dst, "w") as handle:
        handle.write(text)
    return dst


def _lines(path: str):
    with open(path) as handle:
        return handle.read().splitlines()


# -- format v2: sealing --------------------------------------------------------


def test_every_record_is_crc_sealed_and_manifest_carries_identity(checkpointed):
    path, _ = checkpointed
    lines = _lines(path)
    assert len(lines) == 1 + RUNS * len(PRIMARY_MODELS)
    for line in lines:
        record = json.loads(line)
        assert record["crc"] == crc_of(record)
    manifest = json.loads(lines[0])
    assert manifest["version"] == 2
    assert "identity" in manifest


def test_scan_is_clean_on_an_untouched_checkpoint(checkpointed):
    path, _ = checkpointed
    report = scan_checkpoint(path)
    assert report.clean
    assert report.records == RUNS * len(PRIMARY_MODELS)
    assert report.sealed == report.records + 1  # + the manifest


# -- corruption detection ------------------------------------------------------


def _stale_crc(line: str, other: str) -> tuple:
    record = json.loads(line)
    record["index"] += 1000  # CRC now stale
    return json.dumps(record, sort_keys=True), "CRC mismatch"


def _unsealed(line: str, other: str) -> tuple:
    """A record without its CRC, edited: what a pre-CRC writer or a hand
    edit leaves behind."""
    record = json.loads(line)
    del record["crc"]
    record["index"] += 1000
    return json.dumps(record, sort_keys=True), "CRC missing"


def _other_family(line: str, other: str) -> tuple:
    """A CRC-valid record of the other engine, which this one can't decode."""
    foreign = _lines(other)[1]
    return foreign, f"unexpected record type {json.loads(foreign)['type']!r}"


@pytest.mark.parametrize(
    "damage",
    [_stale_crc, _unsealed, _other_family],
    ids=["stale-crc", "unsealed", "other-family"],
)
def test_interior_corruption_raises_with_line_number(sealed, damage, tmp_path):
    bad = _copy(sealed.path, tmp_path / "bad.jsonl")
    lines = _lines(bad)
    # line 3: an interior data record
    lines[2], reason = damage(lines[2], sealed.other)
    with open(bad, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    with pytest.raises(CheckpointError, match=rf":3: .*{re.escape(reason)}"):
        sealed.load(bad)
    report = scan_checkpoint(bad)
    assert not report.torn_tail
    assert [(i.lineno, i.reason) for i in report.issues] == [(3, reason)]


def test_unparsable_interior_line_raises_but_torn_tail_is_tolerated(
    sealed, tmp_path
):
    torn = _copy(sealed.path, tmp_path / "torn.jsonl")
    with open(torn, "a") as handle:
        handle.write('{"type": "result", "ind')  # killed mid-append
    _, done, _ = sealed.load(torn)
    assert len(done) == sealed.records
    report = scan_checkpoint(torn)
    assert report.torn_tail and not report.interior_issues

    interior = _copy(sealed.path, tmp_path / "interior.jsonl")
    lines = _lines(interior)
    lines[3] = lines[3][: len(lines[3]) // 2]
    with open(interior, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    with pytest.raises(CheckpointError, match=r":4: "):
        sealed.load(interior)


def test_truncate_torn_tail_drops_only_the_partial_line(sealed, tmp_path):
    torn = _copy(sealed.path, tmp_path / "trunc.jsonl")
    intact = _lines(torn)
    with open(torn, "a") as handle:
        handle.write('{"half')
    sealed.resume(torn)  # finished run: the resume appends nothing
    assert _lines(torn) == intact
    sealed.resume(torn)  # idempotent on a clean file
    assert _lines(torn) == intact


def test_edited_manifest_is_rejected_by_identity_hash(checkpointed, tmp_path):
    path, _ = checkpointed
    edited = _copy(path, tmp_path / "edited.jsonl")
    lines = _lines(edited)
    manifest = json.loads(lines[0])
    manifest["seed"] = manifest["seed"] + 1  # hand edit; reseal the CRC
    lines[0] = json.dumps(seal_record(manifest), sort_keys=True)
    with open(edited, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    with pytest.raises(CheckpointError, match="identity"):
        load_checkpoint_full(edited)


# -- the repro checkpoint CLI --------------------------------------------------


def test_verify_exit_codes(checkpointed, tmp_path, capsys):
    path, _ = checkpointed
    assert checkpoint_main(["verify", path]) == 0

    torn = _copy(path, tmp_path / "torn.jsonl")
    with open(torn, "a") as handle:
        handle.write('{"half')
    assert checkpoint_main(["verify", torn]) == 1
    out = capsys.readouterr().out
    assert f"{torn}:8: torn tail" in out

    assert checkpoint_main(["verify", str(tmp_path / "missing.jsonl")]) == 2


def _another_version(path: str, dst) -> str:
    """A copy of ``path`` whose manifest says format version 1, resealed;
    the version is outside the identity hash, so only it is wrong."""
    old = _copy(path, dst)
    lines = _lines(old)
    manifest = json.loads(lines[0])
    manifest["version"] = 1
    lines[0] = json.dumps(seal_record(manifest), sort_keys=True)
    return _write_lines(old, lines)


def test_verify_flags_only_the_manifest_of_another_version(
    sealed, tmp_path, capsys
):
    old = _another_version(sealed.path, tmp_path / "v1.jsonl")
    assert checkpoint_main(["verify", old]) == 1
    out = capsys.readouterr().out
    assert f"{old}:1: corrupt: unsupported" in out
    assert out.count(": corrupt: ") == 1
    assert "1 damaged line(s)" in out


def test_merge_refuses_a_shard_of_another_version(sealed, tmp_path, capsys):
    old = _another_version(sealed.path, tmp_path / "v1.jsonl")
    merged = str(tmp_path / "merged.jsonl")
    assert checkpoint_main(["merge", "-o", merged, sealed.path, old]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"{old}: ")
    assert "unsupported checkpoint version 1" in err
    assert not os.path.exists(merged)


@pytest.mark.parametrize("command", ["merge", "repair"])
def test_unwritable_output_exits_2(command, checkpointed, tmp_path, capsys):
    """An output path in a directory that does not exist is unusable
    input: one stderr line and exit 2, not a traceback."""
    path, _ = checkpointed
    out = str(tmp_path / "missing" / "out.jsonl")
    argv = {
        "merge": ["merge", "-o", out, path],
        "repair": ["repair", path, "-o", out],
    }[command]
    assert checkpoint_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot write {out}: ") and err.count("\n") == 1


def test_inspect_reports_counts(checkpointed, capsys):
    path, campaign = checkpointed
    assert checkpoint_main(["inspect", path]) == 0
    out = capsys.readouterr().out
    assert f"done         {len(campaign.results)}" in out
    assert "quarantined  0" in out
    assert "remaining    0" in out


def test_repair_then_resume_matches_uninterrupted_run(
    checkpointed, tiny_suite, tmp_path, capsys
):
    path, campaign = checkpointed
    bad = _copy(path, tmp_path / "bad.jsonl")
    lines = _lines(bad)
    lines[4] = lines[4][:-10] + '"corrupt"}'  # stomp an interior record
    with open(bad, "w") as handle:
        handle.write("\n".join(lines) + "\n")

    repaired = str(tmp_path / "repaired.jsonl")
    assert checkpoint_main(["repair", bad, "-o", repaired]) == 0
    out = capsys.readouterr()
    assert f"{bad}:5: dropped" in out.out
    assert "EXPERIMENTS.md" in out.err  # interior drops gate the figures
    assert checkpoint_main(["verify", repaired]) == 0

    resumed = run_engine(
        tiny_suite,
        RUNS,
        seed=SEED,
        backend=SerialBackend(),
        checkpoint_path=repaired,
        resume=True,
    )
    assert [_comparable(r) for r in resumed.results] == [
        _comparable(r) for r in campaign.results
    ]
    assert checkpoint_main(["verify", repaired]) == 0


def test_merge_shards_matches_full_checkpoint(checkpointed, tmp_path):
    path, campaign = checkpointed
    lines = _lines(path)
    shard_a, shard_b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    with open(shard_a, "w") as handle:
        handle.write("\n".join([lines[0]] + lines[1:4]) + "\n")
    with open(shard_b, "w") as handle:  # overlaps shard_a on line 4's record
        handle.write("\n".join([lines[0]] + lines[3:]) + "\n")

    merged = str(tmp_path / "merged.jsonl")
    assert checkpoint_main(["merge", "-o", merged, shard_a, shard_b]) == 0
    assert checkpoint_main(["verify", merged]) == 0
    _, done, failures = load_checkpoint_full(merged)
    assert len(done) == len(campaign.results) and not failures
    by_index = {index: result for index, result in done.values()}
    assert [_comparable(by_index[i]) for i in sorted(by_index)] == [
        _comparable(r) for r in campaign.results
    ]


def test_merge_refuses_mismatched_manifests(checkpointed, tmp_path, capsys):
    path, _ = checkpointed
    from repro.exec.durability import manifest_identity

    other = _copy(path, tmp_path / "other.jsonl")
    lines = _lines(other)
    manifest = json.loads(lines[0])
    manifest["seed"] = manifest["seed"] + 1  # a different campaign
    manifest["identity"] = manifest_identity(manifest)
    lines[0] = json.dumps(seal_record(manifest), sort_keys=True)
    with open(other, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    merged = str(tmp_path / "merged.jsonl")
    assert checkpoint_main(["merge", "-o", merged, path, other]) == 2
    err = capsys.readouterr().err
    assert "different campaigns" in err
    assert "seed" in err


def test_merge_refuses_shards_with_different_goldens(
    checkpointed, tiny_suite, tmp_path, capsys
):
    """Goldens stay out of the manifest identity, so merge compares them
    itself: two shards of one campaign whose programs were built at two
    sizes are refused with one stderr line naming the benchmark."""
    path, _ = checkpointed
    (name,) = tiny_suite
    other = str(tmp_path / "other-scale.jsonl")
    run_engine(
        {name: WORKLOADS[name](scale=0.5)}, RUNS, seed=SEED,
        backend=SerialBackend(), checkpoint_path=other,
    )
    merged = str(tmp_path / "merged.jsonl")
    assert checkpoint_main(["merge", "-o", merged, path, other]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"golden run of {name}" in err
    assert not os.path.exists(merged)


@pytest.fixture(scope="module")
def overlapping_shards(checkpointed, tiny_suite, tmp_path_factory):
    """Two shards of one campaign, cut from two independent runs of it, that
    overlap on two keys. The manifests are byte-equal; the two copies of an
    overlapping record differ in their wall-clock ``sim_wall_ns`` only."""
    path, _ = checkpointed
    rerun = str(tmp_path_factory.mktemp("durability") / "rerun.jsonl")
    run_engine(
        tiny_suite, RUNS, seed=SEED, backend=SerialBackend(),
        checkpoint_path=rerun,
    )
    first, second = _lines(path), _lines(rerun)
    assert first[0] == second[0]
    return [first[0]] + first[1:5], [second[0]] + second[3:]


def _keys(lines):
    return {json.loads(line)["key"] for line in lines[1:]}


def _write_lines(path, lines) -> str:
    path = str(path)
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    return path


def test_cli_merge_overlap_is_argument_order_independent(
    overlapping_shards, tmp_path
):
    """``repro checkpoint merge`` with overlapping shards: the two copies
    of an overlapping key differ, so only a content-based choice between
    them (``canonical_winner``) makes either argument order produce
    byte-identical output."""
    first, second = overlapping_shards
    overlap = _keys(first) & _keys(second)
    assert len(overlap) == 2
    assert not set(first[1:]) & set(second[1:]), "the copies must differ"
    shard_a = _write_lines(tmp_path / "a.jsonl", first)
    shard_b = _write_lines(tmp_path / "b.jsonl", second)

    outputs = []
    for name, order in (
        ("ab.jsonl", [shard_a, shard_b]),
        ("ba.jsonl", [shard_b, shard_a]),
    ):
        out = str(tmp_path / name)
        assert checkpoint_main(["merge", "-o", out] + order) == 0
        assert checkpoint_main(["verify", out]) == 0
        with open(out, "rb") as handle:
            outputs.append(handle.read())
    assert outputs[0] == outputs[1]
    _, done, failures = fold_checkpoint(str(tmp_path / "ab.jsonl"))
    assert len(done) == len(_keys(first) | _keys(second)) and not failures


def test_cli_merge_result_beats_failure_in_both_orders(
    overlapping_shards, tmp_path
):
    first, second = overlapping_shards
    victim = sorted(_keys(first) & _keys(second))[0]
    # Shard A records a quarantine for the overlap key; shard B completed
    # it. Whichever order the shards are merged, the result must win.
    doctored = [first[0]]
    for line in first[1:]:
        record = json.loads(line)
        if record["key"] == victim:
            record = {
                "type": "failure",
                "index": record["index"],
                "key": victim,
                "benchmark": "bitcount",
                "failure": {
                    "kind": "exception",
                    "attempts": 3,
                    "message": "flaky host",
                    "traceback": "",
                },
            }
            line = json.dumps(seal_record(record), sort_keys=True)
        doctored.append(line)
    shard_a = _write_lines(tmp_path / "failed.jsonl", doctored)
    shard_b = _write_lines(tmp_path / "completed.jsonl", second)
    for name, order in (
        ("fr.jsonl", [shard_a, shard_b]),
        ("rf.jsonl", [shard_b, shard_a]),
    ):
        out = str(tmp_path / name)
        assert checkpoint_main(["merge", "-o", out] + order) == 0
        _, done, failures = fold_checkpoint(out)
        assert victim in done and victim not in failures, (
            f"argument order {order} let a failure shadow a result"
        )


def test_merged_overlap_reports_like_the_uninterrupted_run(
    checkpointed, overlapping_shards, tmp_path
):
    """Whichever copy of an overlapping record the merge keeps, the
    campaign it reports is the uninterrupted run's, row for row."""
    from repro.analysis.export import campaign_from_checkpoint, to_csv

    _, campaign = checkpointed
    first, second = overlapping_shards
    merged = str(tmp_path / "merged.jsonl")
    assert checkpoint_main([
        "merge", "-o", merged,
        _write_lines(tmp_path / "a.jsonl", first),
        _write_lines(tmp_path / "b.jsonl", second),
    ]) == 0
    assert to_csv(campaign_from_checkpoint(merged)) == to_csv(campaign)


def test_merge_is_idempotent_on_its_own_output(overlapping_shards, tmp_path):
    """Merging the result again, alone or with a shard already in it, adds
    nothing: the bytes stay the same."""
    first, second = overlapping_shards
    shard_a = _write_lines(tmp_path / "a.jsonl", first)
    shard_b = _write_lines(tmp_path / "b.jsonl", second)
    merged = str(tmp_path / "merged.jsonl")
    assert checkpoint_main(["merge", "-o", merged, shard_a, shard_b]) == 0
    with open(merged, "rb") as handle:
        expected = handle.read()
    for name, inputs in (
        ("alone.jsonl", [merged]),
        ("again.jsonl", [merged, shard_a]),
        ("late.jsonl", [shard_b, merged]),
    ):
        out = str(tmp_path / name)
        assert checkpoint_main(["merge", "-o", out] + inputs) == 0
        with open(out, "rb") as handle:
            assert handle.read() == expected, name


def test_merge_refuses_a_shard_with_interior_damage(
    checkpointed, tmp_path, capsys
):
    path, _ = checkpointed
    bad = _copy(path, tmp_path / "bad.jsonl")
    lines = _lines(bad)
    lines[3] = lines[3][:-10] + '"corrupt"}'
    _write_lines(bad, lines)
    merged = str(tmp_path / "merged.jsonl")
    assert checkpoint_main(["merge", "-o", merged, path, bad]) == 2
    captured = capsys.readouterr()
    assert f"{bad}:4: corrupt" in captured.out
    assert f"repro checkpoint repair {bad}" in captured.err
    assert not os.path.exists(merged)


def test_merge_drops_a_torn_shard_tail(checkpointed, tmp_path, capsys):
    """A shard whose writer was killed mid-append merges the way a resume
    loads it: the partial last line goes, every complete record stays."""
    path, campaign = checkpointed
    torn = _copy(path, tmp_path / "torn.jsonl")
    with open(torn, "a") as handle:
        handle.write('{"half')
    merged = str(tmp_path / "merged.jsonl")
    assert checkpoint_main(["merge", "-o", merged, torn]) == 0
    assert f"{torn}:8: torn tail" in capsys.readouterr().out
    assert checkpoint_main(["verify", merged]) == 0
    _, done, failures = fold_checkpoint(merged)
    assert len(done) == len(campaign.results) and not failures


def test_merge_fuzz_shards_matches_full_checkpoint(
    fuzz_checkpointed, tmp_path
):
    """Fuzz records merge by ``index`` as campaign records do by ``key``."""
    lines = _lines(fuzz_checkpointed)
    cut = len(lines) // 2 + 1
    shard_a = _write_lines(tmp_path / "a.jsonl", lines[:cut])
    # Overlaps shard_a on the record at line ``cut``.
    shard_b = _write_lines(tmp_path / "b.jsonl", [lines[0]] + lines[cut - 1:])
    merged = str(tmp_path / "merged.jsonl")
    assert checkpoint_main(["merge", "-o", merged, shard_b, shard_a]) == 0
    assert checkpoint_main(["verify", merged]) == 0
    _, done, failures = fold_checkpoint(merged)
    _, full_done, full_failures = fold_checkpoint(fuzz_checkpointed)
    assert done == full_done and failures == full_failures
    _, results, quarantined = load_fuzz_checkpoint_full(merged)
    assert len(results) == FUZZ_BUDGET and not quarantined


@pytest.mark.parametrize("command", ["inspect", "repair", "merge"])
def test_missing_input_exits_2(command, tmp_path, capsys):
    missing = str(tmp_path / "missing.jsonl")
    argv = {
        "inspect": ["inspect", missing],
        "repair": ["repair", missing],
        "merge": ["merge", "-o", str(tmp_path / "out.jsonl"), missing],
    }[command]
    assert checkpoint_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read {missing}: ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


def test_checkpoint_without_a_subcommand_prints_help_and_exits_2(capsys):
    assert checkpoint_main([]) == 2
    assert capsys.readouterr().out.startswith("usage: repro checkpoint")


# -- the merge rule ------------------------------------------------------------


def _record(kind, key, note):
    return {"type": kind, "key": key, "index": int(key[1:]), "note": note}


#: ``(done, failures)`` per shard: k1 is a result in one shard and a failure
#: in another, k2 a result in two, k3 a failure in two and a result in one,
#: k4 a failure in two.
MERGE_SHARDS = (
    (
        {
            "k1": _record("result", "k1", "a"),
            "k2": _record("result", "k2", "a"),
        },
        {"k3": _record("failure", "k3", "a")},
    ),
    (
        {"k2": _record("result", "k2", "b")},
        {
            "k1": _record("failure", "k1", "b"),
            "k3": _record("failure", "k3", "b"),
            "k4": _record("failure", "k4", "b"),
        },
    ),
    (
        {"k3": _record("result", "k3", "c")},
        {"k4": _record("failure", "k4", "c")},
    ),
)


def _merge_all(shards, done=None, failures=None):
    done = {} if done is None else done
    failures = {} if failures is None else failures
    for shard_done, shard_failures in shards:
        merge_shard(done, failures, shard_done, shard_failures)
    return done, failures


@pytest.mark.parametrize(
    "order",
    list(itertools.permutations(range(3))),
    ids=lambda order: "-".join(map(str, order)),
)
def test_merge_shard_is_arrival_order_independent(order):
    done, failures = _merge_all(MERGE_SHARDS[i] for i in order)
    assert done == {
        "k1": _record("result", "k1", "a"),  # a result outranks a failure
        "k2": _record("result", "k2", "a"),  # the smaller canonical payload
        "k3": _record("result", "k3", "c"),
    }
    assert failures == {"k4": _record("failure", "k4", "b")}


def test_merge_shard_is_idempotent():
    """Merging a shard that is already in (a retried or late copy) changes
    nothing, whatever was merged after it."""
    done, failures = _merge_all(MERGE_SHARDS)
    expected = (dict(done), dict(failures))
    for shard in MERGE_SHARDS:
        assert _merge_all([shard], done, failures) == expected


def test_canonical_winner_is_symmetric_and_ignores_the_crc():
    a = seal_record(_record("result", "k1", "a"))
    b = seal_record(_record("result", "k1", "b"))
    assert canonical_winner(a, b) is a and canonical_winner(b, a) is a
    # The CRC would sort first; it is not part of the compared payload.
    assert canonical_winner(dict(b, crc=0), a) is a


# -- single-writer locking -----------------------------------------------------


def test_second_writer_is_refused(sealed, tmp_path):
    mine = _copy(sealed.path, tmp_path / "locked.jsonl")
    with SealedLog(mine, {}, resume=True):
        with pytest.raises(CheckpointLockedError, match="another run"):
            sealed.resume(mine)
    # Released on close: a new writer may take the file.
    sealed.resume(mine)
    assert not os.path.exists(lock_path_for(mine))


def test_stale_lock_of_a_dead_process_is_taken_over(tmp_path):
    path = str(tmp_path / "ck.jsonl")
    probe = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                           capture_output=True, text=True)
    dead_pid = int(probe.stdout)
    with open(lock_path_for(path), "w") as handle:
        json.dump({"pid": dead_pid, "host": socket.gethostname(),
                   "created": time.time()}, handle)
    lock = CheckpointLock(path)
    lock.acquire()  # dead same-host owner: immediate takeover, no wait
    lock.release()
    assert not os.path.exists(lock_path_for(path))


def test_aged_out_heartbeat_is_taken_over_even_for_live_pid(tmp_path):
    path = str(tmp_path / "ck.jsonl")
    with open(lock_path_for(path), "w") as handle:
        json.dump({"pid": os.getpid(), "host": "elsewhere",
                   "created": time.time()}, handle)
    old = time.time() - 120
    os.utime(lock_path_for(path), (old, old))
    with pytest.raises(CheckpointLockedError):
        CheckpointLock(path, stale_after_s=600.0).acquire()
    CheckpointLock(path, stale_after_s=60.0).acquire().release()


def _plant_lock(path: str, owner: dict) -> None:
    with open(lock_path_for(path), "w") as handle:
        json.dump(dict({"created": time.time()}, **owner), handle)


def test_cross_host_lock_is_refused_even_when_the_pid_is_dead_here(tmp_path):
    """PID liveness carries no signal across machines: a lock recorded on
    another host must never be taken over just because the same PID number
    happens to be dead (or alive) on *this* one — only its heartbeat aging
    out may clear it."""
    path = str(tmp_path / "ck.jsonl")
    probe = subprocess.run(
        [sys.executable, "-c", "import os; print(os.getpid())"],
        capture_output=True, text=True,
    )
    dead_here = int(probe.stdout)
    _plant_lock(path, {"pid": dead_here, "host": "another-host"})
    with pytest.raises(CheckpointLockedError, match="another-host"):
        CheckpointLock(path).acquire()


def test_same_pid_as_ours_on_another_host_is_refused(tmp_path):
    """A run on host B may reuse host A's PID number; holding that PID
    ourselves proves nothing about the remote owner."""
    path = str(tmp_path / "ck.jsonl")
    _plant_lock(path, {"pid": os.getpid(), "host": "another-host"})
    with pytest.raises(CheckpointLockedError, match="another-host"):
        CheckpointLock(path).acquire()


def test_legacy_lock_without_host_only_ages_out(tmp_path):
    """Locks written before the host field existed get no PID-based
    takeover (their host is unknown), but still age out by heartbeat."""
    path = str(tmp_path / "ck.jsonl")
    probe = subprocess.run(
        [sys.executable, "-c", "import os; print(os.getpid())"],
        capture_output=True, text=True,
    )
    _plant_lock(path, {"pid": int(probe.stdout)})  # dead here, host unknown
    with pytest.raises(CheckpointLockedError, match="an unrecorded host"):
        CheckpointLock(path).acquire()
    old = time.time() - 120
    os.utime(lock_path_for(path), (old, old))
    CheckpointLock(path, stale_after_s=60.0).acquire().release()
    assert not os.path.exists(lock_path_for(path))


# -- atomic writes -------------------------------------------------------------


def test_atomic_write_replaces_and_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out.json"
    target.write_text("old")
    atomic_write_text(str(target), "new contents")
    assert target.read_text() == "new contents"
    assert os.listdir(tmp_path) == ["out.json"]


# -- graceful shutdown ---------------------------------------------------------


def test_shutdown_latch_and_drain_deadline():
    shutdown = GracefulShutdown(drain_s=5.0)
    assert not shutdown.requested and shutdown.drain_remaining() == 0.0
    shutdown.request(signal.SIGTERM)
    assert shutdown.requested
    assert shutdown.signal_name == "SIGTERM"
    assert 0.0 < shutdown.drain_remaining() <= 5.0


def test_engine_stops_dispatch_after_shutdown_and_resume_completes(
    checkpointed, tiny_suite, tiny_tasks, tmp_path
):
    path, campaign = checkpointed
    partial = str(tmp_path / "partial.jsonl")
    shutdown = GracefulShutdown()

    def stop_after_first(event):
        if event.benchmark is not None and not shutdown.requested:
            shutdown.request()  # a second request() would hard-exit

    interrupted = run_engine(
        tiny_suite,
        RUNS,
        seed=SEED,
        backend=SerialBackend(),
        checkpoint_path=partial,
        observers=[stop_after_first],
        shutdown=shutdown,
    )
    assert 0 < len(interrupted.results) < len(tiny_tasks)
    assert checkpoint_main(["verify", partial]) == 0  # flushed + sealed
    resumed = run_engine(
        tiny_suite,
        RUNS,
        seed=SEED,
        backend=SerialBackend(),
        checkpoint_path=partial,
        resume=True,
    )
    assert [_comparable(r) for r in resumed.results] == [
        _comparable(r) for r in campaign.results
    ]


def test_pool_drains_inflight_tasks_after_shutdown_and_resume_completes(
    checkpointed, tiny_suite, tiny_tasks, tmp_path
):
    """After a shutdown request the pool dispatches nothing new but keeps
    what its busy workers finish within the drain deadline, quarantining
    nothing; a resume on a fresh pool completes the campaign."""
    path, campaign = checkpointed
    partial = str(tmp_path / "partial.jsonl")
    shutdown = GracefulShutdown()

    def stop_after_first(event):
        if event.benchmark is not None and not shutdown.requested:
            shutdown.request()  # a second request() would hard-exit

    interrupted = run_engine(
        tiny_suite,
        RUNS,
        seed=SEED,
        backend=ProcessPoolBackend(2),
        checkpoint_path=partial,
        observers=[stop_after_first],
        shutdown=shutdown,
    )
    assert 1 < len(interrupted.results) < len(tiny_tasks)
    assert interrupted.failures == []
    assert checkpoint_main(["verify", partial]) == 0  # flushed + sealed
    resumed = run_engine(
        tiny_suite,
        RUNS,
        seed=SEED,
        backend=ProcessPoolBackend(2),
        checkpoint_path=partial,
        resume=True,
    )
    assert [_comparable(r) for r in resumed.results] == [
        _comparable(r) for r in campaign.results
    ]


@pytest.mark.parametrize("command", ["campaign", "sweep"])
@pytest.mark.parametrize(
    "signum, group",
    [(signal.SIGTERM, False), (signal.SIGINT, True)],
    ids=["sigterm-parent", "sigint-group"],
)
def test_sigterm_drains_flushes_and_prints_resume_hint(
    command, signum, group, tmp_path
):
    """Subprocess-based: a real SIGTERM to a parallel ``repro campaign``
    or ``repro sweep``, or a Ctrl-C's SIGINT to its whole process group
    (pool workers included), must exit with the shutdown code, leave
    verifiable checkpoints and no lock, and print the resume hint
    (acceptance criterion). Workers leave the signal to the parent's
    shutdown latch; a sweep stops after the interrupted cell."""
    common = [
        "--benchmarks", "bitcount,sha", "--scale", "0.5", "--seed", "1",
        "--jobs", "2",
    ]
    if command == "campaign":
        target = str(tmp_path / "sig.jsonl")
        argv = ["campaign", "--runs", "40", "--checkpoint", target,
                "--no-progress", "--figures", "3"]
        hint = f"--resume {target}"
        pattern = target
    else:
        target = str(tmp_path / "cells")
        argv = ["sweep", "--widths", "1,4", "--disciplines", "fifo",
                "--recoveries", "checkpoint", "--runs", "20",
                "--checkpoint-dir", target, "--no-bench"]
        hint = f"--checkpoint-dir {target} --resume"
        pattern = os.path.join(target, "*.jsonl")

    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *argv, *common],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=group,
    )
    try:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline and proc.poll() is None:
            time.sleep(0.2)
            lines = 0
            for path in glob.glob(pattern):
                with open(path) as handle:
                    lines += sum(1 for _ in handle)
            if lines >= 3:
                break
        if group:
            os.killpg(proc.pid, signum)
        else:
            proc.send_signal(signum)
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == SHUTDOWN_EXIT_CODE, err
    assert f"interrupted by {signal.Signals(signum).name}" in err
    assert hint in err
    assert glob.glob(pattern)
    for path in glob.glob(pattern):
        assert checkpoint_main(["verify", path]) == 0
        assert not os.path.exists(lock_path_for(path))  # released cleanly
