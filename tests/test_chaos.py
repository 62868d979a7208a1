"""Chaos scenarios that kill real processes or drive a seeded fault schedule.

Each scenario sabotages a real small campaign and asserts the one contract
every failure path shares: the surviving artifact verifies clean and
exports byte-identically to a clean serial (``--jobs 1``) run.

- **Torn append:** ``repro campaign`` dies halfway through writing a
  checkpoint record; verify flags it, repair salvages the rest, the dead
  writer's lock is taken over, and the resume completes the campaign.
- **Mid-batch kill:** a batched, snapshot-driven campaign process dies
  inside a batch; the resume records every task exactly once.
- **Fleet:** a ``repro serve`` coordinator and ``repro work`` processes
  survive a worker SIGKILL (lease expiry) and a coordinator
  SIGKILL/restart on the same port and state directory.
- **Network mixes:** a worker behind a seeded ``FaultyTransport`` finishes
  the campaign under each of four fault mixes without charging a shard.

Pool worker kills, hangs and no-op resumes live in
``tests/test_resilience.py``; heartbeat loss in ``tests/test_fabric.py``;
auth in ``tests/test_fabric_auth.py``; the offline breaker in
``tests/test_fabric_net.py``.
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
from repro.cli import repro_main
from repro.exec.backends import ExecutionContext, SerialBackend
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
    lock_path_for,
    scan_checkpoint,
)
from repro.exec.engine import run_engine
from repro.exec.fabric import (
    CampaignSpec,
    FabricCoordinator,
    FabricPolicy,
    FabricWorker,
    FaultRule,
    FaultSchedule,
    FaultyTransport,
    HttpTransport,
    LocalTransport,
    TransportError,
)
from repro.exec.tasks import (
    BatchedInjectionTask,
    generate_tasks,
    group_into_batches,
)
from repro.workloads import WORKLOADS

BENCHMARK = "bitcount"
SCALE = 0.25
RUNS = 6  # 6 runs x 3 models x 1 benchmark = 18 tasks -> 9 shards of 2
SEED = 1
SHARD = 2
SNAPSHOT_INTERVAL = 100
BATCH_SIZE = 4

#: The repository root: the mid-batch child imports this module from it.
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
    record, leaving a torn tail and a stale lock. Verify flags the tail,
    repair salvages the two intact records, a resume takes over the dead
    writer's lock and finishes bit-identically."""
    path = str(tmp_path / "torn.jsonl")
    child = subprocess.run(
        [
            sys.executable, "-m", "repro", "campaign",
            "--runs", str(RUNS), "--benchmarks", BENCHMARK,
            "--scale", str(SCALE), "--seed", str(SEED),
            "--checkpoint", path, "--snapshot-interval", "0",
            "--no-progress", "--figures", "3",
        ],
        env=dict(clean_env, **{ENV_TORN_APPEND: tasks[2].key}),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == TORN_APPEND_EXIT_STATUS, child.stderr
    assert os.path.exists(lock_path_for(path)), "a killed writer keeps its lock"

    report = scan_checkpoint(path)
    assert report.torn_tail and not report.interior_issues, report.issues
    assert report.records == 2
    assert checkpoint_main(["verify", path]) == 1

    repaired = str(tmp_path / "torn.repaired.jsonl")
    assert checkpoint_main(["repair", path, "-o", repaired]) == 0
    assert checkpoint_main(["verify", repaired]) == 0
    _, done, quarantined = load_checkpoint_full(repaired)
    assert len(done) == 2 and not quarantined

    # The dead owner's lock, parked next to the repaired file: the resume
    # must take it over (same host, provably dead PID), not refuse.
    os.replace(lock_path_for(path), lock_path_for(repaired))
    resumed = run_engine(
        programs, RUNS, seed=SEED, backend=SerialBackend(),
        checkpoint_path=repaired, resume=True,
    )
    assert len(resumed.results) == len(tasks)
    assert not os.path.exists(lock_path_for(repaired))
    _assert_matches_reference(repaired, reference)


# -- mid-batch kill ------------------------------------------------------------


def batched_campaign(path: str) -> None:
    """The mid-batch child: a serial, batched, snapshot-driven campaign on
    ``path`` (resumed when it exists) that obeys the inherited chaos plan."""
    run_engine(
        _programs(),
        RUNS,
        seed=SEED,
        backend=SerialBackend(),
        checkpoint_path=path,
        resume=os.path.exists(path),
        snapshot_interval=SNAPSHOT_INTERVAL,
        batch_size=BATCH_SIZE,
        task_runner=chaos_runner,
    )


def _run_batched_child(path, env):
    return subprocess.run(
        [
            sys.executable, "-c",
            "import sys; from tests.test_chaos import batched_campaign; "
            "batched_campaign(sys.argv[1])",
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


def test_mid_batch_kill_resumes_every_task_exactly_once(
    programs, tasks, reference, clean_env, tmp_path
):
    """The child dies on the second member of a multi-member batch that is
    not the first dispatched, so earlier batches are checkpointed and the
    killed batch's first member has simulated but not been written. The
    resume must lose and repeat nothing."""
    context = ExecutionContext(programs=programs, config=None)
    goldens = {name: context.golden(name) for name in programs}
    batches = group_into_batches(
        tasks, goldens, None, SNAPSHOT_INTERVAL, BATCH_SIZE
    )
    target = next(
        unit
        for unit in batches[1:]
        if isinstance(unit, BatchedInjectionTask) and len(unit.members) >= 2
    )
    path = str(tmp_path / "midbatch.jsonl")

    killed = _run_batched_child(
        path, dict(clean_env, **{ENV_EXIT: target.members[1].key})
    )
    assert killed.returncode == EXIT_STATUS, killed.stderr
    before = _result_keys(path)
    assert 0 < len(before) < len(tasks)
    assert not {member.key for member in target.members} & set(before), (
        "no member of the killed batch may reach the checkpoint"
    )

    resumed = _run_batched_child(path, clean_env)
    assert resumed.returncode == 0, resumed.stderr
    assert Counter(_result_keys(path)) == Counter(task.key for task in tasks)
    _assert_matches_reference(path, reference)


# -- the fleet: real coordinator and worker processes --------------------------


def _wait_for(predicate, deadline_s, what):
    """Poll ``predicate`` until it returns something truthy; transport
    errors (a coordinator that is down or restarting) count as not yet."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        try:
            value = predicate()
        except TransportError:
            value = None
        if value:
            return value
        time.sleep(0.2)
    raise AssertionError(f"timed out after {deadline_s:.0f}s waiting for {what}")


def _read_url(path):
    try:
        with open(path) as handle:
            return json.load(handle)["url"]
    except (OSError, ValueError):
        return None  # not written yet


def test_fleet_survives_worker_and_coordinator_kills(
    reference, clean_env, tmp_path
):
    """One worker is SIGKILLed while it holds a lease: the coordinator
    must expire the lease and keep the campaign running. The coordinator
    is then SIGKILLed mid-campaign and restarted on the same port and
    state directory; it must keep every merged task, and the surviving
    workers must finish with a fetched artifact identical to ``--jobs 1``."""
    state_dir = str(tmp_path / "state")
    procs = []

    def spawn(name, *args):
        with open(tmp_path / f"{name}.log", "ab") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", *args],
                env=clean_env, stdout=log, stderr=subprocess.STDOUT,
            )
        procs.append(proc)
        return proc

    def serve(port):
        return spawn(
            "serve", "serve", "--state-dir", state_dir,
            "--host", "127.0.0.1", "--port", str(port),
            "--lease-ttl", "2", "--no-progress",
        )

    def work(name):
        return spawn(
            name, "work", "--coordinator", url,
            "--workdir", str(tmp_path / name), "--poll", "0.2",
            "--snapshot-interval", str(SNAPSHOT_INTERVAL),
        )

    def killed(proc):
        proc.kill()
        return proc.wait(timeout=30) == -signal.SIGKILL

    try:
        coordinator = serve(0)  # the OS picks a free port
        url = _wait_for(
            lambda: _read_url(os.path.join(state_dir, "coordinator.json")),
            30, "the coordinator to publish its URL",
        )
        transport = HttpTransport(url, timeout_s=10.0)
        assert repro_main([
            "submit", "--coordinator", url, "--runs", str(RUNS),
            "--benchmarks", BENCHMARK, "--seed", str(SEED),
            "--scale", str(SCALE), "--shard-size", str(SHARD),
        ]) == 0
        total = transport.status()["total_tasks"]

        victim = work("w1")
        _wait_for(
            lambda: transport.status()["shards"]["leased"] > 0,
            30, "the victim worker to lease a shard",
        )
        assert killed(victim)
        _wait_for(
            lambda: transport.status()["shards"]["leased"] == 0,
            30, "the dead worker's lease to expire",
        )
        assert transport.status()["state"] == "running"

        workers = [work("w2"), work("w3")]
        _wait_for(
            lambda: transport.status()["done_tasks"] >= SHARD,
            60, "a shard to merge before the coordinator dies",
        )
        merged = transport.status()["done_tasks"]
        assert killed(coordinator)
        serve(int(url.rsplit(":", 1)[1]))
        restarted = _wait_for(
            transport.status, 30, "the restarted coordinator"
        )
        assert restarted["done_tasks"] >= merged, "the restart lost work"

        def finished():
            status = transport.status()
            return status if status["state"] == "done" else None

        final = _wait_for(finished, 180, "the fleet to finish the campaign")
        assert final["done_tasks"] == total
        assert not final["quarantined_shards"], final
        for worker in workers:
            assert worker.wait(timeout=30) == 0

        artifact = str(tmp_path / "fetched.jsonl")
        assert repro_main(["fetch", "--coordinator", url, "-o", artifact]) == 0
        _assert_matches_reference(artifact, reference)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)


# -- network fault mixes -------------------------------------------------------

NET_MIXES = {
    "latency+drop": FaultSchedule(seed=101, rules=(
        FaultRule(kind="latency", p=0.3, latency_s=0.01),
        FaultRule(kind="drop", p=0.25),
    )),
    # Asymmetric outage windows per endpoint, then everything heals: calls
    # inside a window never reach the coordinator.
    "partition+heal": FaultSchedule(seed=102, rules=(
        FaultRule(kind="partition", endpoint="request",
                  first_call=2, last_call=4),
        FaultRule(kind="partition", endpoint="upload",
                  first_call=1, last_call=3),
        FaultRule(kind="partition", endpoint="heartbeat",
                  first_call=1, last_call=5),
    )),
    "garbage+duplicate": FaultSchedule(seed=103, rules=(
        FaultRule(kind="garbage", p=0.2),
        FaultRule(kind="duplicate", p=0.3),
    )),
    # Responses destroyed after the request was applied: every retry
    # re-applies something that already happened.
    "truncate+blackhole": FaultSchedule(seed=104, rules=(
        FaultRule(kind="truncate", endpoint="upload", p=0.25),
        FaultRule(kind="blackhole-response", endpoint="request", p=0.2),
        FaultRule(kind="blackhole-response", endpoint="release", p=0.5),
    )),
}


@pytest.mark.parametrize("mix", sorted(NET_MIXES))
def test_network_fault_mix_finishes_without_charging_a_shard(
    mix, reference, tmp_path
):
    """A worker behind a seeded fault schedule must finish the campaign;
    the schedule must have injected something, no shard may be charged
    (the worker neither died nor hung), and the merged artifact must be
    identical to ``--jobs 1``."""
    schedule = NET_MIXES[mix]
    coordinator = FabricCoordinator(
        str(tmp_path / "state"),
        policy=FabricPolicy(reassign_backoff_max_s=0.0),
    )
    coordinator.submit(CampaignSpec(
        benchmarks=(BENCHMARK,), runs_per_model=RUNS, seed=SEED,
        scale=SCALE, shard_size=SHARD,
    ).to_dict())
    faulty = FaultyTransport(
        LocalTransport(coordinator),
        schedule,
        sleep=lambda s: time.sleep(min(s, 0.01)),  # test-speed latency
    )
    worker = FabricWorker(
        faulty,
        worker_id=f"net-{schedule.seed}",
        workdir=str(tmp_path / "work"),
        snapshot_interval=SNAPSHOT_INTERVAL,
        poll_s=0.05,
        sleep=lambda s: time.sleep(min(s, 0.02)),  # test-speed backoff
    )
    assert worker.run() == 0
    assert faulty.injected, f"{mix} injected no fault"
    charged = [shard.index for shard in coordinator.shards
               if shard.failed_workers]
    assert not charged, f"{mix} charged shards {charged}"
    _assert_matches_reference(coordinator.artifact_path, reference)
