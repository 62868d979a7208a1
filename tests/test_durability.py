"""Artifact-integrity scenarios: checkpoint format v2, verify/repair/merge,
single-writer locking and graceful shutdown.

The checker mindset applied to our own persistence layer: every scenario
damages (or contends for) a real checkpoint produced by a real small
campaign and asserts the durability contract — corruption is reported with
line numbers, repair + resume reproduces the uninterrupted run bit for
bit, v1 files keep resuming, and a second writer never interleaves. The
contract of the sealed log itself is checked on a campaign checkpoint and
on a fuzz checkpoint alike, since both engines write through it.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import pytest

from repro.bugs.models import PRIMARY_MODELS
from repro.exec.backends import SerialBackend
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
    crc_of,
    lock_path_for,
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
        )
    return Log(
        request.getfixturevalue("fuzz_checkpointed"),
        FUZZ_BUDGET,
        load_fuzz_checkpoint_full,
        lambda p: run_fuzz(
            seed=SEED, budget=FUZZ_BUDGET, batch=FUZZ_BATCH,
            checkpoint_path=p, resume=True,
        ),
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


# -- v1 backward compatibility -------------------------------------------------


def _downgrade_to_v1(path: str) -> None:
    """Rewrite a v2 checkpoint as the v1 format: no CRCs, no identity."""
    lines = []
    for line in _lines(path):
        record = json.loads(line)
        record.pop("crc", None)
        record.pop("identity", None)
        if record.get("type").endswith("manifest"):
            record["version"] = 1
        lines.append(json.dumps(record, sort_keys=True))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def test_v1_checkpoint_still_loads(sealed, tmp_path):
    v1 = _copy(sealed.path, tmp_path / "v1.jsonl")
    _downgrade_to_v1(v1)
    manifest, done, failures = sealed.load(v1)
    assert len(done) == sealed.records and not failures
    report = scan_checkpoint(v1)
    assert report.clean and report.sealed == 0


def test_v1_checkpoint_resumes_under_the_v2_writer(
    checkpointed, tiny_suite, tiny_tasks, tmp_path
):
    path, campaign = checkpointed
    v1 = _copy(path, tmp_path / "v1partial.jsonl")
    _downgrade_to_v1(v1)
    head = _lines(v1)[:3]  # keep manifest + first 2 records only
    with open(v1, "w") as handle:
        handle.write("\n".join(head) + "\n")
    resumed = run_engine(
        tiny_suite,
        RUNS,
        seed=SEED,
        backend=SerialBackend(),
        checkpoint_path=v1,
        resume=True,
    )
    assert [_comparable(r) for r in resumed.results] == [
        _comparable(r) for r in campaign.results
    ]
    # The grown file mixes unsealed v1 lines with sealed v2 appends and
    # must still load and scan clean.
    _, done, _ = load_checkpoint_full(v1)
    assert len(done) == len(tiny_tasks)
    assert scan_checkpoint(v1).clean


# -- corruption detection ------------------------------------------------------


def test_interior_corruption_raises_with_line_number(sealed, tmp_path):
    bad = _copy(sealed.path, tmp_path / "bad.jsonl")
    lines = _lines(bad)
    record = json.loads(lines[2])  # line 3: an interior result record
    record["index"] += 1000  # CRC now stale
    lines[2] = json.dumps(record, sort_keys=True)
    with open(bad, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    with pytest.raises(CheckpointError, match=r":3: .*CRC mismatch"):
        sealed.load(bad)
    report = scan_checkpoint(bad)
    assert not report.torn_tail
    assert [(i.lineno, i.reason) for i in report.issues] == [
        (3, "CRC mismatch")
    ]


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
    assert "different campaigns" in capsys.readouterr().err


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
    """A fabric worker on host B may reuse host A's PID number; holding
    that PID ourselves proves nothing about the remote owner."""
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


def test_sigterm_drains_flushes_and_prints_resume_hint(tmp_path):
    """Subprocess-based: a real SIGTERM against a parallel ``repro
    campaign`` must exit with the shutdown code, leave a verifiable
    checkpoint and print the resume hint (acceptance criterion)."""
    path = str(tmp_path / "sig.jsonl")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "campaign",
            "--runs", "40", "--benchmarks", "bitcount,sha", "--scale", "0.5",
            "--seed", "1", "--jobs", "2", "--checkpoint", path,
            "--no-progress", "--figures", "3",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            time.sleep(0.2)
            try:
                with open(path) as handle:
                    if sum(1 for _ in handle) >= 3:
                        break
            except FileNotFoundError:
                pass
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == SHUTDOWN_EXIT_CODE, err
    assert "interrupted by SIGTERM" in err
    assert f"--resume {path}" in err
    assert checkpoint_main(["verify", path]) == 0
    assert not os.path.exists(lock_path_for(path))  # lock released cleanly
