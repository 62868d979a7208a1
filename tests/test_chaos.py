"""Chaos scenarios that kill real processes mid-write.

Each scenario sabotages a real small campaign and asserts the one contract
every failure path shares: the surviving artifact verifies clean and
exports byte-identically to a clean serial (``--jobs 1``) run.

- **Torn append:** ``repro campaign`` dies halfway through writing a
  checkpoint record; verify flags it, repair salvages the rest, and a
  resume of the killed writer's own file completes the campaign. The
  writer's lock died with it, so there is nothing to take over.
- **Mid-run kill:** a serial, snapshot-driven campaign process dies in
  the middle of its task list; the resume records every task exactly
  once.
- **Killed parent:** the parent of a ``--jobs 2`` campaign is SIGKILLed
  alone; its pool workers exit instead of outliving it.

Pool worker kills, hangs and no-op resumes live in
``tests/test_resilience.py``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from collections import Counter

import pytest

from repro.analysis.export import campaign_from_checkpoint, to_csv, to_json
from repro.bugs.models import PRIMARY_MODELS
from repro.exec.backends import SerialBackend
from repro.exec.chaos import (
    ALL_ENV_VARS,
    ENV_EXIT,
    EXIT_STATUS,
    chaos_runner,
)
from repro.exec.checkpoint import load_checkpoint_full, result_to_dict
from repro.exec.cli import checkpoint_main
from repro.exec.durability import (
    ENV_TORN_APPEND,
    TORN_APPEND_EXIT_STATUS,
    fold_checkpoint,
)
from repro.exec.engine import run_engine
from repro.exec.tasks import generate_tasks
from repro.workloads import WORKLOADS

BENCHMARK = "bitcount"
SCALE = 0.25
RUNS = 6  # 6 runs x 3 models x 1 benchmark = 18 tasks
SEED = 1

#: The repository root: the mid-run child imports this module from it.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _programs():
    return {BENCHMARK: WORKLOADS[BENCHMARK](scale=SCALE)}


@pytest.fixture(scope="module")
def programs():
    return _programs()


@pytest.fixture(scope="module")
def tasks(programs):
    return generate_tasks(list(programs), RUNS, list(PRIMARY_MODELS), SEED, 6)


@pytest.fixture(scope="module")
def reference(programs):
    """The clean serial campaign every scenario must reproduce."""
    return run_engine(programs, RUNS, seed=SEED, backend=SerialBackend())


@pytest.fixture()
def clean_env(monkeypatch):
    """The environment without any chaos plan, for this process and its
    children."""
    for name in ALL_ENV_VARS:
        monkeypatch.delenv(name, raising=False)
    return dict(os.environ)


def _comparable(result):
    # Everything but throughput bookkeeping: wall-clock and snapshot /
    # convergence accounting depend on how a run executed; outcomes don't.
    record = result_to_dict(result)
    for name in ("sim_wall_ns", "warm_start_cycles_skipped",
                 "early_terminated_cycle"):
        record.pop(name)
    return record


def _assert_matches_reference(path, reference):
    """CRC-clean, nothing quarantined, every result and both exports
    identical to the clean serial run."""
    assert checkpoint_main(["verify", path]) == 0
    campaign = campaign_from_checkpoint(path)
    assert not campaign.failures, campaign.failures
    assert [_comparable(r) for r in campaign.results] == [
        _comparable(r) for r in reference.results
    ]
    assert to_csv(campaign) == to_csv(reference)
    assert to_json(campaign) == to_json(reference)


# -- torn append ---------------------------------------------------------------


def test_torn_append_is_flagged_repaired_and_resumed(
    programs, tasks, reference, clean_env, tmp_path
):
    """``repro campaign`` hard-exits after writing half of its third
    record, leaving a torn tail and no other file. Verify flags the tail,
    repair salvages the two intact records, and a resume of the killed
    writer's own file drops the tail and finishes bit-identically; the
    kernel released the dead writer's lock, so nothing is taken over."""
    path = str(tmp_path / "torn.jsonl")
    child = subprocess.run(
        [
            sys.executable, "-m", "repro", "campaign",
            "--runs", str(RUNS), "--benchmarks", BENCHMARK,
            "--scale", str(SCALE), "--seed", str(SEED),
            "--checkpoint", path,
            "--no-progress", "--figures", "3",
        ],
        env=dict(clean_env, **{ENV_TORN_APPEND: tasks[2].key}),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == TORN_APPEND_EXIT_STATUS, child.stderr
    assert os.listdir(tmp_path) == ["torn.jsonl"]

    report = fold_checkpoint(path)[0]
    assert report.torn_tail and not report.interior_issues, report.issues
    assert report.records == 2
    assert checkpoint_main(["verify", path]) == 1

    repaired = str(tmp_path / "torn.repaired.jsonl")
    assert checkpoint_main(["repair", path, "-o", repaired]) == 0
    assert checkpoint_main(["verify", repaired]) == 0
    _, done, quarantined = load_checkpoint_full(repaired)
    assert len(done) == 2 and not quarantined

    resumed = run_engine(
        programs, RUNS, seed=SEED, backend=SerialBackend(),
        checkpoint_path=path, resume=True,
    )
    assert len(resumed.results) == len(tasks)
    _assert_matches_reference(path, reference)


# -- mid-run kill --------------------------------------------------------------


def snapshot_campaign(path: str) -> None:
    """The mid-run child: a serial, snapshot-driven campaign on ``path``
    (resumed when it exists) that obeys the inherited chaos plan."""
    run_engine(
        _programs(),
        RUNS,
        seed=SEED,
        backend=SerialBackend(),
        checkpoint_path=path,
        resume=os.path.exists(path),
        task_runner=chaos_runner,
    )


def _run_child(path, env):
    return subprocess.run(
        [
            sys.executable, "-c",
            "import sys; from tests.test_chaos import snapshot_campaign; "
            "snapshot_campaign(sys.argv[1])",
            path,
        ],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _result_keys(path):
    with open(path) as handle:
        return [
            record["key"]
            for record in map(json.loads, handle)
            if record.get("type") == "result"
        ]


def test_mid_run_kill_resumes_every_task_exactly_once(
    programs, tasks, reference, clean_env, tmp_path
):
    """The child dies as it starts a task in the middle of the list, so
    the tasks before it are checkpointed and the rest never ran. The
    resume must lose and repeat nothing."""
    target = tasks[len(tasks) // 2]
    path = str(tmp_path / "midrun.jsonl")

    killed = _run_child(path, dict(clean_env, **{ENV_EXIT: target.key}))
    assert killed.returncode == EXIT_STATUS, killed.stderr
    before = _result_keys(path)
    assert before == [task.key for task in tasks[: target.index]]
    assert target.key not in before, "the killed task may not be recorded"

    resumed = _run_child(path, clean_env)
    assert resumed.returncode == 0, resumed.stderr
    assert Counter(_result_keys(path)) == Counter(task.key for task in tasks)
    _assert_matches_reference(path, reference)


# -- killed parent -------------------------------------------------------------


def _line_count(path):
    if not os.path.exists(path):
        return 0
    with open(path) as handle:
        return sum(1 for _ in handle)


def test_pool_workers_do_not_outlive_a_killed_parent(clean_env, tmp_path):
    """A SIGKILL to the parent of a ``--jobs 2`` campaign alone: its pool
    workers must see the parent go and exit, not sleep on their pipes
    forever with the checkpoint open. Each worker holds the parent's ends
    of its own pipe and of every earlier worker's, so no pipe reads EOF."""
    path = str(tmp_path / "orphans.jsonl")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "campaign",
            "--runs", "40", "--benchmarks", "bitcount,sha",
            "--scale", "0.5", "--seed", "1", "--jobs", "2",
            "--checkpoint", path, "--no-progress", "--figures", "3",
        ],
        env=clean_env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 120
        while _line_count(path) < 3:
            assert proc.poll() is None, "the campaign ended before the kill"
            assert time.monotonic() < deadline, "no records after 120 s"
            time.sleep(0.2)
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 60
        while True:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, (
                "pool workers outlived their killed parent by 60 s"
            )
            time.sleep(0.2)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
