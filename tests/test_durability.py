"""Artifact-integrity scenarios: checkpoint format v2, verify/repair,
single-writer locking and stopping a run.

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
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import textwrap
import time
from dataclasses import dataclass
from typing import Callable

import pytest

import repro.exec.backends as backends
from repro.bugs.models import PRIMARY_MODELS
from repro.bugs.snapshot import SnapshotProvider
from repro.cli import main as campaign_main
from repro.exec.backends import ProcessPoolBackend, SerialBackend
from repro.exec.checkpoint import (
    CheckpointError,
    decode_record,
    load_checkpoint_full,
    manifest_for,
    result_to_dict,
)
from repro.exec.cli import checkpoint_main
from repro.exec.durability import (
    CheckpointLockedError,
    SHUTDOWN_EXIT_CODE,
    SealedLog,
    atomic_write_text,
    crc_of,
    fold_checkpoint,
    manifest_identity,
    manifest_mismatch,
    seal_record,
)
from repro.exec.engine import run_engine
from repro.fuzz import engine as fuzz_engine
from repro.fuzz.engine import load_fuzz_checkpoint_full, run_fuzz
from repro.sweep import cell_checkpoint_path
from repro.workloads import WORKLOADS

RUNS = 2  # 2 runs x 3 models x 1 benchmark = 6 tasks
SEED = 7
FUZZ_BUDGET = 8
FUZZ_BATCH = 4


@pytest.fixture(scope="module")
def tiny_suite():
    return {"bitcount": WORKLOADS["bitcount"](scale=0.25)}


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
    decode: Callable[[dict], object]  # the engine's decode_record
    resume: Callable[..., object]  # (path, seed=SEED)
    other: str  # a finished log of the other engine


@pytest.fixture(params=["campaign", "fuzz"])
def sealed(request, tiny_suite):
    if request.param == "campaign":
        path, campaign = request.getfixturevalue("checkpointed")
        return Log(
            path,
            len(campaign.results),
            load_checkpoint_full,
            decode_record,
            lambda p, seed=SEED: run_engine(
                tiny_suite, RUNS, seed=seed, backend=SerialBackend(),
                checkpoint_path=p, resume=True,
            ),
            request.getfixturevalue("fuzz_checkpointed"),
        )
    return Log(
        request.getfixturevalue("fuzz_checkpointed"),
        FUZZ_BUDGET,
        load_fuzz_checkpoint_full,
        fuzz_engine.decode_record,
        lambda p, seed=SEED: run_fuzz(
            seed=seed, budget=FUZZ_BUDGET, batch=FUZZ_BATCH,
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


def _write_lines(path, lines) -> str:
    path = str(path)
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    return path


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
    report = fold_checkpoint(path)[0]
    assert report.clean
    assert report.records == RUNS * len(PRIMARY_MODELS)


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


def _sealed_in(line: str, other: str) -> tuple:
    """A record whose fields do not decode, resealed: what a faulty
    writer, or a hand edit that recomputed the CRC, leaves behind (a
    ``result`` without its outcome, an ``eval`` without its verdict)."""
    record = json.loads(line)
    if record["type"] == "result":
        del record["result"]["outcome"]
    else:
        del record["ok"]
    sealed = json.dumps(seal_record(record), sort_keys=True)
    return sealed, f"undecodable {record['type']} record (KeyError)"


@pytest.mark.parametrize(
    "damage",
    [_stale_crc, _unsealed, _other_family, _sealed_in],
    ids=["stale-crc", "unsealed", "other-family", "sealed-in"],
)
def test_interior_corruption_raises_with_line_number(
    sealed, damage, tmp_path, capsys
):
    """Every reader names the damaged line alike: the loader refuses it,
    ``verify`` reports it and ``repair`` drops it."""
    bad = _copy(sealed.path, tmp_path / "bad.jsonl")
    lines = _lines(bad)
    # line 3: an interior data record
    lines[2], reason = damage(lines[2], sealed.other)
    with open(bad, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    with pytest.raises(CheckpointError, match=rf":3: .*{re.escape(reason)}"):
        sealed.load(bad)
    report = fold_checkpoint(bad, sealed.decode)[0]
    assert not report.torn_tail
    assert [(i.lineno, i.reason) for i in report.issues] == [(3, reason)]
    assert checkpoint_main(["verify", bad]) == 1
    assert f"{bad}:3: corrupt: {reason}\n" in capsys.readouterr().out
    repaired = str(tmp_path / "repaired.jsonl")
    assert checkpoint_main(["repair", bad, "-o", repaired]) == 0
    assert f"{bad}:3: dropped: {reason}\n" in capsys.readouterr().out
    _, done, _ = sealed.load(repaired)
    assert len(done) == sealed.records - 1


def test_unparsable_interior_line_raises_but_torn_tail_is_tolerated(
    sealed, tmp_path
):
    torn = _copy(sealed.path, tmp_path / "torn.jsonl")
    with open(torn, "a") as handle:
        handle.write('{"type": "result", "ind')  # killed mid-append
    _, done, _ = sealed.load(torn)
    assert len(done) == sealed.records
    report = fold_checkpoint(torn)[0]
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


def test_a_refused_resume_keeps_the_torn_tail(sealed, tmp_path):
    """A resume refused as another run's leaves the file byte for byte,
    torn tail included: the tail is dropped only once the file is found
    to be this run's."""
    torn = _copy(sealed.path, tmp_path / "torn.jsonl")
    with open(torn, "a") as handle:
        handle.write('{"half')
    with open(torn, "rb") as handle:
        before = handle.read()
    with pytest.raises(CheckpointError, match="seed=7 does not match"):
        sealed.resume(torn, seed=SEED + 1)
    with open(torn, "rb") as handle:
        assert handle.read() == before


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


def test_a_campaign_manifest_that_does_not_decode_is_refused_at_line_1(
    checkpointed, tmp_path, capsys
):
    """A manifest without ``runs_per_model``, its identity and CRC
    resealed, is intact bytes that do not decode: the loader refuses it
    naming line 1, and ``verify`` flags that line alone."""
    bad = _copy(checkpointed[0], tmp_path / "bad.jsonl")
    lines = _lines(bad)
    manifest = json.loads(lines[0])
    del manifest["runs_per_model"]
    manifest["identity"] = manifest_identity(manifest)
    lines[0] = json.dumps(seal_record(manifest), sort_keys=True)
    _write_lines(bad, lines)
    reason = "undecodable manifest record (KeyError)"
    with pytest.raises(
        CheckpointError, match=rf":1: corrupt record \({re.escape(reason)}\)"
    ):
        load_checkpoint_full(bad)
    assert checkpoint_main(["verify", bad]) == 1
    out = capsys.readouterr().out
    assert f"{bad}:1: corrupt: {reason}" in out
    assert out.count(": corrupt: ") == 1


@pytest.mark.parametrize(
    "reader", ["from-checkpoint", "campaign-resume", "fuzz-resume"]
)
def test_the_clis_refuse_a_sealed_in_record_naming_its_line(
    reader, checkpointed, fuzz_checkpointed, tmp_path, capsys
):
    """``--from-checkpoint``, campaign ``--resume`` and fuzz ``--resume``
    read through the one reader, so a record whose fields do not decode
    ends each with exit 2 and one stderr line naming ``PATH:LINE``."""
    from repro.fuzz.cli import fuzz_main

    fuzz = reader == "fuzz-resume"
    bad = _copy(fuzz_checkpointed if fuzz else checkpointed[0],
                tmp_path / "bad.jsonl")
    lines = _lines(bad)
    lines[2], reason = _sealed_in(lines[2], "")
    _write_lines(bad, lines)
    common = ["--seed", str(SEED), "--no-progress"]
    if fuzz:
        code = fuzz_main(common + [
            "--budget", str(FUZZ_BUDGET), "--batch", str(FUZZ_BATCH),
            "--resume", bad,
        ])
    elif reader == "from-checkpoint":
        code = campaign_main(["--from-checkpoint", bad, "--figures", "3"])
    else:
        code = campaign_main(common + [
            "--runs", str(RUNS), "--benchmarks", "bitcount", "--scale",
            "0.25", "--figures", "3", "--resume", bad,
        ])
    assert code == 2
    [line] = capsys.readouterr().err.splitlines()
    assert f"{bad}:3: corrupt record ({reason})" in line


# -- the repro checkpoint CLI --------------------------------------------------


def test_verify_exit_codes(sealed, tmp_path, capsys):
    assert checkpoint_main(["verify", sealed.path]) == 0
    assert capsys.readouterr().out.endswith(f"{sealed.path}: ok\n")

    torn = _copy(sealed.path, tmp_path / "torn.jsonl")
    with open(torn, "a") as handle:
        handle.write('{"half')
    assert checkpoint_main(["verify", torn]) == 1
    out = capsys.readouterr().out
    # The manifest is line 1, so the torn line follows the last record.
    assert f"{torn}:{sealed.records + 2}: torn tail" in out

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


def test_unwritable_output_exits_2(checkpointed, tmp_path, capsys):
    """An output path in a directory that does not exist is unusable
    input: one stderr line and exit 2, not a traceback."""
    path, _ = checkpointed
    out = str(tmp_path / "missing" / "out.jsonl")
    assert checkpoint_main(["repair", path, "-o", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot write {out}: ") and err.count("\n") == 1


def test_verify_reports_counts(sealed, capsys):
    assert checkpoint_main(["verify", sealed.path]) == 0
    out = capsys.readouterr().out
    manifest = json.loads(_lines(sealed.path)[0])
    assert f"identity     {manifest['identity']}" in out
    assert f"seed         {SEED}" in out
    assert f"done         {sealed.records}" in out
    assert "quarantined  0" in out
    # Only a campaign manifest names its whole task list.
    assert ("remaining    0" in out) == (manifest["type"] == "manifest")


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


@pytest.mark.parametrize("command", ["verify", "repair"])
def test_missing_input_exits_2(command, tmp_path, capsys):
    missing = str(tmp_path / "missing.jsonl")
    assert checkpoint_main([command, missing]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read {missing}: ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


def test_checkpoint_without_a_subcommand_prints_help_and_exits_2(capsys):
    assert checkpoint_main([]) == 2
    assert capsys.readouterr().out.startswith("usage: repro checkpoint")


@pytest.mark.parametrize("command", ["merge", "inspect"])
def test_merge_is_not_a_checkpoint_subcommand(command, tmp_path, capsys):
    """No command writes part of a run, so there is nothing to merge: a
    resume completes a partial file in place. Nor is there a second
    reader beside ``verify``, which prints what ``inspect`` did."""
    out = str(tmp_path / "merged.jsonl")
    with pytest.raises(SystemExit) as exit_info:
        checkpoint_main([command, "-o", out, str(tmp_path / "a.jsonl")])
    assert exit_info.value.code == 2
    assert f"invalid choice: '{command}'" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


# -- the rules a resume reads by ---------------------------------------------


def _record(kind, note):
    return {"type": kind, "key": "k", "index": 0, "note": note}


@pytest.mark.parametrize(
    "records, done, failed",
    [
        ([("failure", "a"), ("result", "b")], "b", None),
        ([("result", "a"), ("failure", "b")], "a", None),
        ([("result", "a"), ("result", "b")], "b", None),
        ([("failure", "a"), ("failure", "b")], None, "b"),
    ],
    ids=[
        "a-retry-that-succeeded",
        "a-result-outranks-a-later-failure",
        "the-later-result-wins",
        "the-later-failure-wins",
    ],
)
def test_fold_checkpoint_keeps_one_record_per_task(
    records, done, failed, tmp_path
):
    """Two records of one task in one file: a result supersedes a failure
    in either order, and otherwise the later record wins. This is the one
    place that decides it; resume, repair and reporting all read through
    it."""
    manifest = {"type": "manifest", "version": 2, "seed": SEED}
    manifest["identity"] = manifest_identity(manifest)
    path = _write_lines(tmp_path / "twice.jsonl", [
        json.dumps(seal_record(record), sort_keys=True)
        for record in [manifest] + [_record(*r) for r in records]
    ])
    report, kept, failures = fold_checkpoint(path)
    assert report.clean and report.records == len(records)
    assert {k: r["note"] for k, r in kept.items()} == (
        {"k": done} if done else {}
    )
    assert {k: r["note"] for k, r in failures.items()} == (
        {"k": failed} if failed else {}
    )


_RUN = {
    "type": "manifest", "version": 2, "identity": "x", "crc": 1,
    "seed": 7, "runs_per_model": 2,
    "limits": {"block_len": 8, "max_blocks": 5},
    "goldens": {"sha": {"cycles": 100, "committed": 80}},
}


@pytest.mark.parametrize(
    "recorded, reason",
    [
        (dict(_RUN, version=1, identity="y", crc=2), None),
        (dict(_RUN, seed=8), "seed=8 does not match this run's seed=7"),
        (
            dict(_RUN, seed=8, runs_per_model=3),
            "runs_per_model=3 does not match this run's runs_per_model=2",
        ),
        (
            dict(_RUN, design_point={"width": 2}),
            "design_point={'width': 2} does not match this run's "
            "design_point=None",
        ),
        (
            dict(_RUN, goldens={"sha": {"cycles": 90, "committed": 80}}),
            "golden run of sha {'cycles': 90, 'committed': 80} does not "
            "match this run's golden run of sha {'cycles': 100, "
            "'committed': 80}",
        ),
        (
            dict(_RUN, limits={"block_len": 8, "max_blocks": 6}),
            "limits.max_blocks=6 does not match this run's "
            "limits.max_blocks=5",
        ),
        (
            dict(_RUN, limits={"block_len": 9, "max_blocks": 6}),
            "limits.block_len=9 does not match this run's "
            "limits.block_len=8",
        ),
        (
            dict(_RUN, limits={"block_len": 8, "max_blocks": 5, "x": {}}),
            "limits.x={} does not match this run's limits.x=None",
        ),
    ],
    ids=[
        "bookkeeping-is-not-identity",
        "an-identity-field",
        "the-first-field-in-name-order",
        "a-field-on-one-side-only",
        "a-golden-run",
        "a-dict-field-names-its-key",
        "the-first-key-in-name-order",
        "a-key-on-one-side-only",
    ],
)
def test_manifest_mismatch_names_the_first_difference(recorded, reason):
    """The one rule behind every resume refusal: the identity fields in
    name order, a field that is a dict on both sides down to its first
    differing key, then each benchmark's golden run; the hash, CRC,
    version and type are not compared."""
    assert manifest_mismatch(recorded, _RUN) == reason


# -- single-writer locking -----------------------------------------------------


def test_second_writer_is_refused(sealed, tmp_path):
    mine = _copy(sealed.path, tmp_path / "locked.jsonl")
    before = _lines(mine)
    with SealedLog(mine, resume=True):
        with pytest.raises(CheckpointLockedError, match="another run"):
            sealed.resume(mine)
        with pytest.raises(CheckpointLockedError, match="another run"):
            SealedLog(mine)  # a fresh writer too
        assert _lines(mine) == before
    # Released on close: a new writer may take the file, and the lock is
    # the file itself, so nothing is left beside it.
    sealed.resume(mine)
    assert os.listdir(tmp_path) == ["locked.jsonl"]


def test_another_process_is_refused_and_the_file_keeps_its_bytes(
    checkpointed, tmp_path
):
    """While this process writes a checkpoint, ``repro campaign`` on it,
    fresh or resumed, exits 2 with one stderr line naming the file, and
    the file keeps its bytes: a fresh writer locks before it truncates."""
    path = _copy(checkpointed[0], tmp_path / "held.jsonl")
    with open(path, "rb") as handle:
        before = handle.read()
    with SealedLog(path, resume=True):
        for flag in ("--checkpoint", "--resume"):
            child = subprocess.run(
                [
                    sys.executable, "-m", "repro", "campaign",
                    "--runs", str(RUNS), "--benchmarks", "bitcount",
                    "--scale", "0.25", "--seed", str(SEED),
                    "--no-progress", "--figures", "3", flag, path,
                ],
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert child.returncode == 2, (flag, child.stderr)
            assert child.stdout == ""
            [line] = child.stderr.splitlines()
            assert path in line and "another run" in line, line
    with open(path, "rb") as handle:
        assert handle.read() == before


def _sleep_once_started(started) -> None:
    started.set()
    time.sleep(60)


def test_a_forked_child_does_not_keep_the_lock(tmp_path):
    """A forked child shares the parent's open checkpoint file, and with
    it the lock; it drops its share at fork, so once the parent closes the
    log a new writer may take the file while the child still runs."""
    path = str(tmp_path / "forked.jsonl")
    log = SealedLog(path)
    log.begin({"type": "manifest"})
    fork = multiprocessing.get_context("fork")
    started = fork.Event()
    child = fork.Process(target=_sleep_once_started, args=(started,))
    child.start()
    try:
        assert started.wait(60)
        log.close()
        assert child.is_alive()
        SealedLog(path, resume=True).close()
    finally:
        log.close()
        child.kill()
        child.join(60)


def _append_and_close(log) -> None:
    log.append({"type": "result", "key": "from-the-child"})
    log.close()


def test_a_forked_childs_copy_neither_writes_nor_unlocks_the_log(tmp_path):
    """A forked child that appends to and closes its copy of the log
    reaches ``/dev/null``, not the checkpoint: the parent's file keeps its
    bytes and the parent keeps its lock, since unlocking the shared file
    would release the parent's lock too."""
    path = str(tmp_path / "shared.jsonl")
    with SealedLog(path) as log:
        log.begin({"type": "manifest"})
        before = _lines(path)
        child = multiprocessing.get_context("fork").Process(
            target=_append_and_close, args=(log,)
        )
        child.start()
        child.join(60)
        assert child.exitcode == 0
        assert _lines(path) == before
        with pytest.raises(CheckpointLockedError, match="another run"):
            SealedLog(path, resume=True)
        log.append({"type": "result", "key": "from-the-parent"})
    assert [json.loads(line).get("key") for line in _lines(path)] == [
        None, "from-the-parent",
    ]


def test_a_fresh_writer_replaces_a_file_no_one_holds(sealed, tmp_path):
    """A fresh writer truncates only once it holds the lock, but it does
    truncate: over a finished log that no writer holds, only its own
    manifest is left."""
    path = _copy(sealed.path, tmp_path / "stale.jsonl")
    assert len(_lines(path)) == sealed.records + 1
    with SealedLog(path) as log:
        log.begin({"type": "manifest", "seed": SEED})
    [line] = _lines(path)
    assert json.loads(line)["type"] == "manifest"
    assert json.loads(line)["seed"] == SEED


@pytest.mark.parametrize("resume", [False, True], ids=["fresh", "resumed"])
def test_a_refused_writer_builds_no_golden_run(
    resume, checkpointed, tiny_suite, monkeypatch, tmp_path
):
    """The lock is taken before set-up, so a writer that will be refused
    builds no snapshot provider (no golden run) before it learns so."""
    path = _copy(checkpointed[0], tmp_path / "held.jsonl")
    built = []

    class CountedProvider(SnapshotProvider):
        def __init__(self, *args, **kwargs):
            built.append(args[0].name)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(backends, "SnapshotProvider", CountedProvider)
    with SealedLog(path, resume=True):
        with pytest.raises(CheckpointLockedError, match="another run"):
            run_engine(
                tiny_suite, RUNS, seed=SEED, checkpoint_path=path,
                resume=resume,
            )
    assert built == []
    run_engine(tiny_suite, RUNS, seed=SEED, checkpoint_path=path, resume=True)
    assert len(built) == len(tiny_suite)  # the count counts


# -- atomic writes -------------------------------------------------------------


def test_atomic_write_replaces_and_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out.json"
    target.write_text("old")
    atomic_write_text(str(target), "new contents")
    assert target.read_text() == "new contents"
    assert os.listdir(tmp_path) == ["out.json"]


# -- stopping a run -----------------------------------------------------------


def _interrupt_at(count):
    """A progress observer that raises KeyboardInterrupt, as a SIGINT (or a
    SIGTERM under a CLI) would, at its ``count``-th event."""
    events = []

    def observer(event):
        events.append(event)
        if len(events) == count:
            raise KeyboardInterrupt

    return observer


def test_engine_stops_dispatch_after_shutdown_and_resume_completes(
    checkpointed, tiny_suite, tmp_path
):
    """An interrupt unwinds a serial run like any error: the checkpoint
    holds exactly the tasks that completed and verifies, and a resume
    equals the uninterrupted run."""
    path, campaign = checkpointed
    partial = str(tmp_path / "partial.jsonl")
    with pytest.raises(KeyboardInterrupt):
        run_engine(
            tiny_suite,
            RUNS,
            seed=SEED,
            backend=SerialBackend(),
            checkpoint_path=partial,
            observers=[_interrupt_at(2)],
        )
    assert len(_lines(partial)) == 1 + 2  # the manifest and two results
    assert checkpoint_main(["verify", partial]) == 0
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


def test_pool_reaps_its_workers_at_an_interrupt_and_resume_completes(
    checkpointed, tiny_suite, monkeypatch, tmp_path
):
    """An interrupt at the first pool result unwinds the run: every worker
    the pool started is killed and reaped, the tasks they held are not
    recorded, and a resume on a fresh pool completes the campaign."""
    path, campaign = checkpointed
    partial = str(tmp_path / "partial.jsonl")
    started = []

    class RecordingWorker(backends._Worker):
        def __init__(self, context):
            super().__init__(context)
            started.append(self.process.pid)

    monkeypatch.setattr(backends, "_Worker", RecordingWorker)
    with pytest.raises(KeyboardInterrupt):
        run_engine(
            tiny_suite,
            RUNS,
            seed=SEED,
            backend=ProcessPoolBackend(2),
            checkpoint_path=partial,
            observers=[_interrupt_at(1)],
        )
    assert len(started) == 2
    for pid in started:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)  # already reaped
    assert len(_lines(partial)) == 1 + 1
    assert checkpoint_main(["verify", partial]) == 0
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


def _without_executions(lines):
    return [line for line in lines if not line.startswith("executions:")]


def test_an_interrupted_fuzz_run_resumes_to_the_uninterrupted_report(
    tmp_path
):
    """A fuzz run interrupted mid-generation keeps every completed
    evaluation, and its resume replays them into the report of an
    uninterrupted run (only the restored count differs)."""
    full = run_fuzz(seed=1, budget=24, batch=8)
    path = str(tmp_path / "fuzz.jsonl")
    with pytest.raises(KeyboardInterrupt):
        run_fuzz(
            seed=1, budget=24, batch=8, checkpoint_path=path,
            observers=[_interrupt_at(11)],
        )
    assert checkpoint_main(["verify", path]) == 0
    _, done, _ = load_fuzz_checkpoint_full(path)
    assert sorted(done) == list(range(11))  # 3 of the second generation
    resumed = run_fuzz(
        seed=1, budget=24, batch=8, checkpoint_path=path, resume=True
    )
    assert resumed.restored == 11
    assert _without_executions(resumed.report_lines()) == (
        _without_executions(full.report_lines())
    )


def test_a_stop_in_set_up_offers_no_resume(monkeypatch, tmp_path, capsys):
    """A run stopped before its checkpoint holds its manifest saved
    nothing: it exits 75 and says to rerun the same command, not to
    resume; and the SIGTERM handler it installed is gone again."""

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(backends, "SnapshotProvider", interrupted)
    before = signal.getsignal(signal.SIGTERM)
    path = str(tmp_path / "run.jsonl")
    code = campaign_main([
        "--runs", "1", "--benchmarks", "sha", "--scale", "0.25",
        "--figures", "3", "--no-progress", "--checkpoint", path,
    ])
    assert code == SHUTDOWN_EXIT_CODE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "interrupted by SIGINT" in captured.err
    assert "rerun the same command" in captured.err
    assert "--resume" not in captured.err
    assert signal.getsignal(signal.SIGTERM) is before


@pytest.fixture(scope="module")
def uninterrupted_csv(tmp_path_factory):
    """The CSV export of the stop test's campaign, run without a stop."""
    path = str(tmp_path_factory.mktemp("uninterrupted") / "full.csv")
    assert campaign_main([
        "--runs", "40", "--benchmarks", "bitcount,sha", "--scale", "0.5",
        "--seed", "1", "--no-progress", "--figures", "3",
        "--export-csv", path,
    ]) == 0
    with open(path, "rb") as handle:
        return handle.read()


@pytest.mark.parametrize("command", ["campaign", "sweep"])
@pytest.mark.parametrize(
    "signum, group",
    [(signal.SIGTERM, False), (signal.SIGINT, True)],
    ids=["sigterm-parent", "sigint-group"],
)
def test_sigterm_flushes_and_prints_resume_hint(
    command, signum, group, tmp_path, request
):
    """Subprocess-based: a real SIGTERM to a parallel ``repro campaign``
    or ``repro sweep``, or a Ctrl-C's SIGINT to its whole process group
    (pool workers included, which ignore it), must exit with the shutdown
    code, leave verifiable checkpoints that a new writer may lock at once
    and nothing beside them, and print the resume hint (acceptance
    criterion). A stopped campaign resumes to the CSV of an uninterrupted
    run, byte for byte."""
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
    written = glob.glob(pattern)
    assert written
    for path in written:
        assert checkpoint_main(["verify", path]) == 0
        SealedLog(path, resume=True).close()  # the lock died with the run
    assert sorted(os.listdir(os.path.dirname(pattern))) == sorted(
        os.path.basename(path) for path in written
    )
    if command == "campaign":
        resumed = str(tmp_path / "resumed.csv")
        child = subprocess.run(
            [sys.executable, "-m", "repro", "campaign", "--runs", "40",
             "--resume", target, "--no-progress", "--figures", "3",
             "--export-csv", resumed, *common],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == 0, child.stderr
        with open(resumed, "rb") as handle:
            assert handle.read() == request.getfixturevalue(
                "uninterrupted_csv"
            )


_STOP_AT_THE_SECOND_CELL = textwrap.dedent(
    """
    import os, signal, sys
    import repro.sweep as sweep

    configs = []
    real = sweep.paper_rrs_config

    def second_config_stops(**kwargs):
        configs.append(kwargs)
        if len(configs) == 2:  # the first cell is done
            os.kill(os.getpid(), signal.SIGTERM)
        return real(**kwargs)

    sweep.paper_rrs_config = second_config_stops
    sys.exit(sweep.sweep_main(sys.argv[1:]))
    """
)


def test_sigterm_between_sweep_cells_stops_the_sweep(tmp_path):
    """A SIGTERM after one cell and before the next is a stop like one
    inside a cell, since one guard covers the whole cell loop: exit 75
    with the sweep's resume hint, the finished cell's checkpoint verifies,
    and no table is printed."""
    cells = str(tmp_path / "cells")
    proc = subprocess.run(
        [sys.executable, "-c", _STOP_AT_THE_SECOND_CELL,
         "--widths", "1,4", "--disciplines", "fifo",
         "--recoveries", "checkpoint", "--runs", "1", "--scale", "0.25",
         "--benchmarks", "crc32", "--jobs", "2", "--checkpoint-dir", cells],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == SHUTDOWN_EXIT_CODE, proc.stderr
    assert "interrupted by SIGTERM" in proc.stderr
    assert f"--checkpoint-dir {cells} --resume" in proc.stderr
    assert proc.stdout == ""
    first = cell_checkpoint_path(cells, 1, "fifo", "checkpoint")
    assert os.listdir(cells) == [os.path.basename(first)]
    assert checkpoint_main(["verify", first]) == 0
