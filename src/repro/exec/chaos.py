"""Fault injection for the fault injector: a chaos harness for the backends.

The paper's campaigns inject bugs into the simulated core; this module
injects faults into the *execution layer* that runs those campaigns, so the
recovery machinery (retry, quarantine, watchdog, pool respawn, serial
degradation) can be exercised against real misbehavior instead of mocks.

:func:`chaos_runner` is a drop-in :data:`~repro.exec.backends.TaskRunner`
that executes the normal injection path, except for tasks whose keys appear
in the ``REPRO_CHAOS_*`` environment variables, which it sabotages instead.
Environment variables — not closures — carry the sabotage plan because pool
workers are separate processes: they inherit the parent's environment but
not its objects, and the runner itself is shipped to workers by module
reference.

Behaviors (each variable holds comma-separated task keys):

- ``REPRO_CHAOS_EXIT``: ``os._exit`` immediately — an unconditional hard
  worker crash (kills the current process, whoever it is).
- ``REPRO_CHAOS_EXIT_IN_WORKER``: ``os._exit`` only inside a pool worker
  process; in the parent the task runs normally. This makes degradation to
  serial testable — the pool keeps dying, the in-process fallback finishes.
- ``REPRO_CHAOS_RAISE``: raise :class:`ChaosError` (a deterministic
  "poison" task that fails every attempt).
- ``REPRO_CHAOS_HANG``: sleep for ``REPRO_CHAOS_HANG_S`` seconds (default
  3600) — a non-cooperative hang only the parent watchdog can clear.
- ``REPRO_CHAOS_TORN_APPEND`` (honored by
  :class:`~repro.exec.durability.SealedLog` itself, one task key):
  emit half of that task's checkpoint line and hard-exit — a deterministic
  SIGKILL-mid-append that leaves a torn tail *and* a stale writer lock.

``python -m repro.exec.chaos`` runs the end-to-end smoke used by CI:
a small parallel campaign with one worker-killer and one hung task must run
to completion, quarantine exactly those two as structured failures in the
checkpoint, keep every surviving result bit-identical to a clean serial
run, and then ``--resume`` must execute zero new tasks. A second scenario
SIGKILLs a ``repro campaign`` subprocess mid-append and asserts that
``repro checkpoint verify`` flags the torn tail, ``repair`` salvages every
intact record, the stale lock is taken over, and a resume of the repaired
file completes bit-identically to an uninterrupted run.

``python -m repro.exec.chaos --fabric`` runs the distributed-fabric chaos
smoke (see :mod:`repro.exec.fabric`): a real ``repro serve`` coordinator
plus three ``repro work`` subprocess workers, with one worker SIGKILLed
mid-shard (its lease must expire and the shard be reassigned) and the
coordinator SIGKILLed mid-campaign and restarted on the same port and
state directory (it must resume from the merged artifact). The surviving
fleet must finish the campaign with a fetched artifact whose exports are
byte-identical to a clean single-process ``--jobs 1`` run. A second,
in-process scenario blackholes a worker's heartbeats on a fake clock and
asserts lease expiry, reassignment, and a deterministic merge when both
the silent and the replacement worker upload the same shard.

``python -m repro.exec.chaos --net`` runs the network chaos smoke: a
matrix of seeded :class:`~repro.exec.fabric.FaultyTransport` schedules
(latency+drop, partition+heal, garbage+duplicate, truncate+blackhole)
under which a worker must still finish the campaign with a merged
artifact byte-identical to the serial reference and no shard ever
double-charged; an authenticated end-to-end scenario (unauthenticated,
wrong-secret, and replayed requests → 401 without state mutation; the
authed artifact byte-identical to the unauthed reference; the secret
leaking into no status output or artifact); and a permanent-partition
scenario where the worker's circuit breaker trips, seals partial work
to its workdir, exits 75, and a restarted worker on the same workdir
recovers the sealed upload and completes the campaign bit-identically.
Every schedule (seed and rules) is serialized next to the artifact it
produced, so any failure replays exactly.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Dict, Iterable, Optional, Set

from repro.exec.backends import ExecutionContext
from repro.exec.durability import ENV_TORN_APPEND, TORN_APPEND_EXIT_STATUS
from repro.exec.tasks import BatchedInjectionTask, execute_task

ENV_EXIT = "REPRO_CHAOS_EXIT"
ENV_EXIT_IN_WORKER = "REPRO_CHAOS_EXIT_IN_WORKER"
ENV_RAISE = "REPRO_CHAOS_RAISE"
ENV_HANG = "REPRO_CHAOS_HANG"
ENV_HANG_S = "REPRO_CHAOS_HANG_S"

#: All plan-carrying variables, for scrubbing between scenarios.
ALL_ENV_VARS = (
    ENV_EXIT,
    ENV_EXIT_IN_WORKER,
    ENV_RAISE,
    ENV_HANG,
    ENV_HANG_S,
    ENV_TORN_APPEND,
)

#: Exit status used for deliberate worker kills (recognizable in CI logs).
EXIT_STATUS = 17


class ChaosError(RuntimeError):
    """The deterministic failure raised for ``REPRO_CHAOS_RAISE`` tasks."""


def chaos_env(
    exit_keys: Iterable[str] = (),
    exit_in_worker_keys: Iterable[str] = (),
    raise_keys: Iterable[str] = (),
    hang_keys: Iterable[str] = (),
    hang_s: Optional[float] = None,
) -> Dict[str, str]:
    """Build the environment-variable plan for a chaos scenario.

    Returns only the variables that are set; callers (tests, the smoke
    harness) should clear :data:`ALL_ENV_VARS` first so plans don't leak
    between scenarios.
    """
    env: Dict[str, str] = {}
    if exit_keys:
        env[ENV_EXIT] = ",".join(exit_keys)
    if exit_in_worker_keys:
        env[ENV_EXIT_IN_WORKER] = ",".join(exit_in_worker_keys)
    if raise_keys:
        env[ENV_RAISE] = ",".join(raise_keys)
    if hang_keys:
        env[ENV_HANG] = ",".join(hang_keys)
    if hang_s is not None:
        env[ENV_HANG_S] = repr(hang_s)
    return env


def _keys(name: str) -> Set[str]:
    raw = os.environ.get(name, "")
    return {key for key in raw.split(",") if key}


def _in_pool_worker() -> bool:
    return multiprocessing.parent_process() is not None


def _maybe_sabotage(key: str) -> None:
    if key in _keys(ENV_EXIT):
        os._exit(EXIT_STATUS)
    if key in _keys(ENV_EXIT_IN_WORKER) and _in_pool_worker():
        os._exit(EXIT_STATUS)
    if key in _keys(ENV_RAISE):
        raise ChaosError(f"chaos: deterministic failure for task {key}")
    if key in _keys(ENV_HANG):
        time.sleep(float(os.environ.get(ENV_HANG_S, "3600")))


def chaos_runner(task: object, context: ExecutionContext) -> object:
    """The sabotage-aware task runner (see module docstring).

    A :class:`~repro.exec.tasks.BatchedInjectionTask` is executed member
    by member, with the sabotage check before *each* member — so a plan
    keyed on a later member kills (or poisons) the process genuinely
    mid-batch, after earlier members already produced results that the
    engine must then discard with the rest of the batch.
    """
    if isinstance(task, BatchedInjectionTask):
        golden = context.golden(task.benchmark)
        results = []
        for member in task.members:
            _maybe_sabotage(member.key)
            results.append(
                execute_task(
                    member,
                    context.programs[task.benchmark],
                    golden,
                    context.config,
                    snapshots=context.snapshots(task.benchmark),
                    deadline=context.deadline,
                )
            )
        return results
    _maybe_sabotage(task.key)
    golden = context.golden(task.benchmark)
    return execute_task(
        task,
        context.programs[task.benchmark],
        golden,
        context.config,
        snapshots=context.snapshots(task.benchmark),
        deadline=context.deadline,
    )


# -- the CI smoke harness ------------------------------------------------------


def _scrub_env() -> None:
    for name in ALL_ENV_VARS:
        os.environ.pop(name, None)


def _smoke(jobs: int = 2) -> int:
    import tempfile

    from repro.bugs.models import PRIMARY_MODELS
    from repro.exec.backends import ProcessPoolBackend, SerialBackend
    from repro.exec.checkpoint import load_checkpoint_full, result_to_dict
    from repro.exec.engine import run_engine
    from repro.exec.resilience import FaultPolicy
    from repro.exec.tasks import generate_tasks
    from repro.workloads import WORKLOADS

    programs = {"bitcount": WORKLOADS["bitcount"](scale=0.5)}
    runs, seed = 4, 1
    tasks = generate_tasks(
        list(programs), runs, list(PRIMARY_MODELS), seed, 6
    )
    kill_key, hang_key = tasks[1].key, tasks[5].key
    print(f"chaos-smoke: {len(tasks)} tasks, jobs={jobs}")
    print(f"  kill: {kill_key}\n  hang: {hang_key}")

    def comparable(result) -> Dict[str, object]:
        # Everything but the throughput bookkeeping: wall-clock measurement
        # and snapshot/convergence accounting vary with *how* a run was
        # executed; every simulation outcome must not.
        record = result_to_dict(result)
        record.pop("sim_wall_ns")
        record.pop("warm_start_cycles_skipped")
        record.pop("early_terminated_cycle")
        return record

    # Clean serial reference: what every surviving task must reproduce.
    _scrub_env()
    baseline = run_engine(programs, runs, seed=seed, backend=SerialBackend())
    baseline_by_key = {
        task.key: comparable(result)
        for task, result in zip(tasks, baseline.results)
    }

    # Hang timeout = task_timeout_s + grace; the hung task burns two of
    # those (one per attempt), so keep them short but far above the ~tens
    # of milliseconds a real bitcount task needs.
    policy = FaultPolicy(
        task_timeout_s=10.0, watchdog_grace_s=2.0, max_task_retries=1
    )
    os.environ.update(
        chaos_env(exit_keys=[kill_key], hang_keys=[hang_key], hang_s=600.0)
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "chaos.jsonl")
        campaign = run_engine(
            programs,
            runs,
            seed=seed,
            backend=ProcessPoolBackend(jobs, policy=policy),
            checkpoint_path=path,
            task_runner=chaos_runner,
        )

        assert len(campaign.results) == len(tasks) - 2, (
            f"expected {len(tasks) - 2} survivors, got {len(campaign.results)}"
        )
        kinds = {rec.key: rec.failure.kind for rec in campaign.failures}
        assert kinds == {kill_key: "worker-crash", hang_key: "timeout"}, kinds
        for rec in campaign.failures:
            assert rec.failure.attempts == policy.max_attempts_per_task

        _, done, quarantined = load_checkpoint_full(path)
        assert set(quarantined) == {kill_key, hang_key}
        assert len(done) == len(tasks) - 2
        for key, (_, result) in done.items():
            assert comparable(result) == baseline_by_key[key], (
                f"survivor {key} diverged from the clean serial run"
            )
        print("chaos-smoke: survivors bit-identical to clean serial run")

        # Resume must execute nothing: all work is completed or quarantined.
        events = []
        resumed = run_engine(
            programs,
            runs,
            seed=seed,
            backend=ProcessPoolBackend(jobs, policy=policy),
            checkpoint_path=path,
            resume=True,
            observers=[events.append],
            task_runner=chaos_runner,
        )
        executed = sum(1 for event in events if event.benchmark is not None)
        assert executed == 0, f"resume executed {executed} tasks"
        assert len(resumed.results) == len(tasks) - 2
        assert len(resumed.failures) == 2
    _scrub_env()
    print(
        f"chaos-smoke OK: {len(campaign.results)} completed, "
        f"{campaign.quarantined} quarantined, resume executed 0 tasks"
    )
    _smoke_torn_append(programs, runs, seed, tasks, baseline_by_key, comparable)
    _smoke_midbatch_kill(programs, runs, seed, tasks, baseline_by_key, comparable)
    return 0


#: Parameters shared by the mid-batch scenario parent and ``--batch-child``.
_BATCH_CHILD_SCALE = 0.5
_BATCH_CHILD_RUNS = 4
_BATCH_CHILD_SEED = 1
_BATCH_CHILD_INTERVAL = 100
_BATCH_CHILD_SIZE = 4


def _batch_child(path: str) -> int:
    """Run a batched snapshot-driven campaign against ``path`` (see below).

    ``python -m repro.exec.chaos --batch-child <checkpoint>`` is the
    subprocess half of the mid-batch SIGKILL scenario: a serial campaign
    with batching and golden snapshots on, dying by ``os._exit``
    when the inherited ``REPRO_CHAOS_EXIT`` plan names a batch member.
    Run again with a scrubbed environment it resumes the checkpoint.
    """
    from repro.exec.backends import SerialBackend
    from repro.exec.engine import run_engine
    from repro.workloads import WORKLOADS

    programs = {"bitcount": WORKLOADS["bitcount"](scale=_BATCH_CHILD_SCALE)}
    run_engine(
        programs,
        _BATCH_CHILD_RUNS,
        seed=_BATCH_CHILD_SEED,
        backend=SerialBackend(),
        checkpoint_path=path,
        resume=os.path.exists(path),
        snapshot_interval=_BATCH_CHILD_INTERVAL,
        batch_size=_BATCH_CHILD_SIZE,
        task_runner=chaos_runner,
    )
    return 0


def _smoke_midbatch_kill(
    programs, runs, seed, tasks, baseline_by_key, comparable
) -> None:
    """SIGKILL a campaign mid-batch; resume must lose and repeat nothing.

    A ``--batch-child`` subprocess runs a batched snapshot-driven campaign
    and hard-exits while executing the *second* member of a multi-member
    batch — after that batch's first member already simulated, but before
    any of the batch reached the checkpoint (batch outcomes are written
    only once the whole batch returns). The resumed child must complete
    the campaign with every task appearing in the checkpoint exactly once
    (none lost, none double-counted) and every result bit-identical to
    the clean serial baseline.
    """
    import json
    import subprocess
    import sys
    import tempfile
    from collections import Counter

    from repro.exec.backends import ExecutionContext
    from repro.exec.checkpoint import load_checkpoint_full
    from repro.exec.tasks import group_into_batches

    # Replay the child's batch grouping to aim the kill at a mid-batch
    # member: the second member of a multi-member batch that is not the
    # first dispatched unit, so some earlier results are already
    # checkpointed when the process dies.
    context = ExecutionContext(programs=programs, config=None)
    goldens = {name: context.golden(name) for name in programs}
    batches = group_into_batches(
        tasks, goldens, None, _BATCH_CHILD_INTERVAL, _BATCH_CHILD_SIZE
    )
    target = next(
        unit
        for unit in batches[1:]
        if isinstance(unit, BatchedInjectionTask) and len(unit.members) >= 2
    )
    kill_key = target.members[1].key
    batch_keys = {member.key for member in target.members}

    _scrub_env()
    clean_env = {
        name: value
        for name, value in os.environ.items()
        if name not in ALL_ENV_VARS
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "midbatch.jsonl")
        child = subprocess.run(
            [sys.executable, "-m", "repro.exec.chaos", "--batch-child", path],
            env=dict(clean_env, **{ENV_EXIT: kill_key}),
            capture_output=True,
            text=True,
        )
        assert child.returncode == EXIT_STATUS, (
            f"expected mid-batch kill exit {EXIT_STATUS}, got "
            f"{child.returncode}: {child.stderr}"
        )
        with open(path) as handle:
            keys_before = [
                record["key"]
                for record in map(json.loads, handle)
                if record.get("type") == "result"
            ]
        assert 0 < len(keys_before) < len(tasks), (
            f"kill must land mid-campaign, got {len(keys_before)} records"
        )
        assert not batch_keys & set(keys_before), (
            "no member of a killed batch may reach the checkpoint"
        )

        resumed = subprocess.run(
            [sys.executable, "-m", "repro.exec.chaos", "--batch-child", path],
            env=clean_env,
            capture_output=True,
            text=True,
        )
        assert resumed.returncode == 0, (
            f"resume failed ({resumed.returncode}): {resumed.stderr}"
        )
        with open(path) as handle:
            key_counts = Counter(
                record["key"]
                for record in map(json.loads, handle)
                if record.get("type") == "result"
            )
        expected = Counter(task.key for task in tasks)
        assert key_counts == expected, (
            "resume lost or double-counted tasks: "
            f"{key_counts - expected} extra, {expected - key_counts} missing"
        )
        _, done, quarantined = load_checkpoint_full(path)
        assert not quarantined and len(done) == len(tasks)
        for key, (_, result) in done.items():
            assert comparable(result) == baseline_by_key[key], (
                f"task {key} diverged from the clean serial baseline"
            )
    print(
        "chaos-smoke OK: mid-batch kill resumed with every task exactly "
        f"once ({len(tasks)} results, kill at {kill_key})"
    )


def _smoke_torn_append(
    programs, runs, seed, tasks, baseline_by_key, comparable
) -> None:
    """Kill ``repro campaign`` mid-append, then verify → repair → resume.

    The writer process dies after emitting half of one record's line (a
    deterministic SIGKILL-mid-append), leaving a torn tail and a stale
    writer lock. ``repro checkpoint verify`` must flag the damage,
    ``repair`` must salvage everything but the torn record, the dead
    owner's lock must be taken over, and a resume of the repaired file
    must complete bit-identically to an uninterrupted run.
    """
    import subprocess
    import sys
    import tempfile

    from repro.exec.backends import SerialBackend
    from repro.exec.checkpoint import load_checkpoint_full
    from repro.exec.cli import checkpoint_main
    from repro.exec.durability import lock_path_for, scan_checkpoint
    from repro.exec.engine import run_engine

    torn_key = tasks[2].key  # third record: manifest + 2 intact + torn tail
    _scrub_env()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "torn.jsonl")
        child = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "campaign",
                "--runs",
                str(runs),
                "--benchmarks",
                "bitcount",
                "--scale",
                "0.5",
                "--seed",
                str(seed),
                "--checkpoint",
                path,
                "--snapshot-interval",
                "0",  # cold starts, comparable to the cold baseline
                "--no-progress",
                "--figures",
                "3",
            ],
            env=dict(os.environ, **{ENV_TORN_APPEND: torn_key}),
            capture_output=True,
            text=True,
        )
        assert child.returncode == TORN_APPEND_EXIT_STATUS, (
            f"expected torn-append exit {TORN_APPEND_EXIT_STATUS}, got "
            f"{child.returncode}: {child.stderr}"
        )
        assert os.path.exists(lock_path_for(path)), (
            "a killed writer must leave its lock behind"
        )

        report = scan_checkpoint(path)
        assert report.torn_tail and not report.interior_issues, report.issues
        assert report.records == 2, f"expected 2 intact records, {report}"
        assert checkpoint_main(["verify", path]) == 1, (
            "verify must flag a torn tail with a nonzero exit"
        )
        print(f"chaos-smoke: torn tail at {path}:{report.issues[0].lineno} "
              "flagged by verify")

        repaired = os.path.join(tmp, "torn.repaired.jsonl")
        assert checkpoint_main(["repair", path, "-o", repaired]) == 0
        assert checkpoint_main(["verify", repaired]) == 0, (
            "a repaired checkpoint must verify clean"
        )
        _, done, quarantined = load_checkpoint_full(repaired)
        assert len(done) == 2 and not quarantined, (
            f"repair must salvage exactly the 2 intact records, got {done}"
        )

        # Park the dead owner's lock next to the repaired file: the resume
        # must take it over (same host, provably dead PID), not refuse.
        os.replace(lock_path_for(path), lock_path_for(repaired))
        resumed = run_engine(
            programs,
            runs,
            seed=seed,
            backend=SerialBackend(),
            checkpoint_path=repaired,
            resume=True,
        )
        assert len(resumed.results) == len(tasks), (
            f"resume must finish all {len(tasks)} tasks, "
            f"got {len(resumed.results)}"
        )
        for task, result in zip(tasks, resumed.results):
            assert comparable(result) == baseline_by_key[task.key], (
                f"resumed task {task.key} diverged from the clean run"
            )
        assert checkpoint_main(["verify", repaired]) == 0
    print(
        "chaos-smoke OK: torn append repaired, stale lock taken over, "
        "resume bit-identical to the uninterrupted run"
    )


# -- the distributed-fabric chaos smoke ----------------------------------------

#: Parameters shared by the fabric scenarios and their serial reference.
_FABRIC_BENCHMARK = "bitcount"
_FABRIC_SCALE = 0.5
_FABRIC_RUNS = 6
_FABRIC_SEED = 1
_FABRIC_SHARD = 2


def _fabric_reference():
    """The clean ``--jobs 1`` reference exports every fabric artifact must
    reproduce byte for byte (CSV carries no wall-clock fields; JSON golden
    summaries come from the manifest either way)."""
    from repro.analysis.export import to_csv, to_json
    from repro.exec.backends import SerialBackend
    from repro.exec.engine import run_engine
    from repro.workloads import WORKLOADS

    programs = {
        _FABRIC_BENCHMARK: WORKLOADS[_FABRIC_BENCHMARK](scale=_FABRIC_SCALE)
    }
    campaign = run_engine(
        programs, _FABRIC_RUNS, seed=_FABRIC_SEED, backend=SerialBackend()
    )
    return to_csv(campaign), to_json(campaign)


def _free_port() -> int:
    import socket

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _wait_for(predicate, deadline_s: float, what: str):
    """Poll ``predicate`` until it returns a truthy value or the deadline
    lapses (transport errors count as 'not yet')."""
    from repro.exec.fabric import TransportError

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


def _smoke_fabric_fleet() -> None:
    """Kill a worker and the coordinator mid-campaign; the artifact must
    not notice.

    Three ``repro work`` subprocesses against a real ``repro serve``
    coordinator. The first worker is SIGKILLed while holding a lease; the
    coordinator must expire that lease and hand the shard to someone else.
    Then the coordinator itself is SIGKILLed mid-campaign and restarted on
    the same port and state directory; the restart must resume from the
    merged artifact (never re-executing merged work) and the fleet must
    finish. The fetched artifact has to verify clean and export
    byte-identically to the serial reference.
    """
    import signal
    import subprocess
    import sys
    import tempfile

    from repro.cli import repro_main
    from repro.exec.cli import checkpoint_main
    from repro.exec.fabric import HttpTransport

    ref_csv, ref_json = _fabric_reference()
    port = _free_port()
    url = f"http://127.0.0.1:{port}"
    transport = HttpTransport(url, timeout_s=10.0)

    def serve(state_dir: str) -> "subprocess.Popen":
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--state-dir", state_dir,
                "--host", "127.0.0.1", "--port", str(port),
                "--lease-ttl", "5", "--no-progress",
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def work(workdir: str) -> "subprocess.Popen":
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro", "work",
                "--coordinator", url,
                "--workdir", workdir,
                "--poll", "0.2",
                "--snapshot-interval", "100",
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    procs = []
    with tempfile.TemporaryDirectory() as tmp:
        state_dir = os.path.join(tmp, "state")
        try:
            coordinator = serve(state_dir)
            procs.append(coordinator)
            _wait_for(
                lambda: transport.status().get("state") is not None,
                30, "the coordinator to come up",
            )
            assert repro_main([
                "submit", "--coordinator", url,
                "--runs", str(_FABRIC_RUNS),
                "--benchmarks", _FABRIC_BENCHMARK,
                "--seed", str(_FABRIC_SEED),
                "--scale", str(_FABRIC_SCALE),
                "--shard-size", str(_FABRIC_SHARD),
            ]) == 0, "repro submit failed"
            total = transport.status()["total_tasks"]
            shards = transport.status()["shards"]["total"]
            print(
                f"fabric-chaos: {total} tasks in {shards} shards on {url}"
            )

            # One worker, killed while it holds a lease: the coordinator
            # must reclaim the shard by lease expiry, with nobody there to
            # release it politely.
            victim_dir = os.path.join(tmp, "w1")
            os.makedirs(victim_dir)
            victim = work(victim_dir)
            procs.append(victim)
            _wait_for(
                lambda: transport.status()["shards"]["leased"] > 0,
                30, "the victim worker to lease a shard",
            )
            victim.kill()
            victim.wait()
            assert victim.returncode == -signal.SIGKILL
            _wait_for(
                lambda: transport.status()["shards"]["leased"] == 0,
                30, "the dead worker's lease to expire",
            )
            status = transport.status()
            assert status["state"] == "running", (
                "one dead worker must not finish (or wedge) the campaign"
            )
            print(
                "fabric-chaos: worker SIGKILLed mid-shard, lease expired "
                f"(merged so far: {status['done_tasks']}/{total})"
            )

            # The surviving fleet.
            workers = []
            for name in ("w2", "w3"):
                workdir = os.path.join(tmp, name)
                os.makedirs(workdir)
                workers.append(work(workdir))
            procs.extend(workers)

            # Kill the coordinator mid-campaign, restart it on the same
            # port and state directory.
            _wait_for(
                lambda: transport.status()["done_tasks"] >= _FABRIC_SHARD,
                60, "some shards to merge before the coordinator dies",
            )
            merged_before = transport.status()["done_tasks"]
            coordinator.kill()
            coordinator.wait()
            assert coordinator.returncode == -signal.SIGKILL
            coordinator = serve(state_dir)
            procs.append(coordinator)
            resumed = _wait_for(
                lambda: transport.status(),
                30, "the restarted coordinator to come up",
            )
            assert resumed["done_tasks"] >= merged_before, (
                "a coordinator restart must not lose merged work "
                f"({resumed['done_tasks']} < {merged_before})"
            )
            print(
                "fabric-chaos: coordinator SIGKILLed and restarted with "
                f"{resumed['done_tasks']}/{total} tasks already merged"
            )

            final = _wait_for(
                lambda: (lambda s: s if s["state"] == "done" else None)(
                    transport.status()
                ),
                180, "the fleet to finish the campaign",
            )
            assert final["done_tasks"] == total, final
            assert not final["quarantined_shards"], final
            for worker in workers:
                assert worker.wait(timeout=30) == 0, (
                    "surviving workers must exit 0 once the campaign is done"
                )

            artifact = os.path.join(tmp, "fetched.jsonl")
            assert repro_main(
                ["fetch", "--coordinator", url, "-o", artifact]
            ) == 0
            assert checkpoint_main(["verify", artifact]) == 0, (
                "the fetched artifact must be CRC-clean"
            )
            from repro.analysis.export import (
                campaign_from_checkpoint,
                to_csv,
                to_json,
            )

            campaign = campaign_from_checkpoint(artifact)
            assert not campaign.failures, campaign.failures
            assert to_csv(campaign) == ref_csv, (
                "fleet CSV export diverged from the serial reference"
            )
            assert to_json(campaign) == ref_json, (
                "fleet JSON export diverged from the serial reference"
            )
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
    print(
        "fabric-chaos OK: worker kill + coordinator kill/restart survived, "
        f"artifact byte-identical to --jobs 1 ({total} tasks)"
    )


def _smoke_fabric_blackhole() -> None:
    """Heartbeat blackhole: a silent worker loses its lease, the shard is
    reassigned, and when *both* workers eventually upload the same shard
    the merge stays deterministic — one record per task, exports
    byte-identical to the serial reference.

    Runs in-process on a fake clock (the coordinator's timeline is
    injectable) so lease expiry is exact, not sleep-based.
    """
    import tempfile

    from repro.analysis.export import (
        campaign_from_checkpoint,
        to_csv,
        to_json,
    )
    from repro.exec.engine import run_engine
    from repro.exec.fabric import (
        CampaignSpec,
        FabricCoordinator,
        FabricPolicy,
    )
    from repro.workloads import WORKLOADS

    ref_csv, ref_json = _fabric_reference()
    clock_now = [0.0]
    spec = CampaignSpec(
        benchmarks=(_FABRIC_BENCHMARK,),
        runs_per_model=_FABRIC_RUNS,
        seed=_FABRIC_SEED,
        scale=_FABRIC_SCALE,
        shard_size=_FABRIC_SHARD,
    )
    programs = {
        _FABRIC_BENCHMARK: WORKLOADS[_FABRIC_BENCHMARK](scale=_FABRIC_SCALE)
    }

    def run_shard(tmp: str, name: str, keys):
        import zlib

        path = os.path.join(tmp, f"{name}.jsonl")
        run_engine(
            programs,
            _FABRIC_RUNS,
            seed=_FABRIC_SEED,
            checkpoint_path=path,
            shard_keys=list(keys),
        )
        with open(path, "rb") as handle:
            data = handle.read()
        return data, zlib.crc32(data) & 0xFFFFFFFF

    with tempfile.TemporaryDirectory() as tmp:
        coordinator = FabricCoordinator(
            os.path.join(tmp, "state"),
            policy=FabricPolicy(lease_ttl_s=60.0, reassign_backoff_max_s=0.0),
            clock=lambda: clock_now[0],
        )
        coordinator.submit(spec.to_dict())

        # The silent worker takes a lease and never heartbeats again.
        silent = coordinator.request("w-silent")["lease"]
        assert silent is not None
        clock_now[0] += 61.0  # one whole TTL of silence
        assert not coordinator.heartbeat(
            "w-silent", silent["shard"], silent["token"]
        ), "a silent worker's heartbeat must find its lease gone"

        # The shard must be reassigned to the next worker that asks.
        release = coordinator.request("w-replacement")["lease"]
        assert release is not None and release["shard"] == silent["shard"], (
            f"expected shard {silent['shard']} reassigned, got {release}"
        )

        # Both finish the same shard; the replacement merges first, the
        # silent worker's late upload (stale token!) must still be
        # accepted and dedup to the same records.
        data, crc = run_shard(tmp, "replacement", release["keys"])
        accepted = coordinator.upload(
            "w-replacement", release["shard"], release["token"], data, crc
        )
        assert accepted["ok"] and accepted["new_records"] == len(
            release["keys"]
        ), accepted
        coordinator.release(
            "w-replacement", release["shard"], release["token"], "complete"
        )
        late_data, late_crc = run_shard(tmp, "silent", silent["keys"])
        late = coordinator.upload(
            "w-silent", silent["shard"], silent["token"], late_data, late_crc
        )
        assert late["ok"] and late["new_records"] == 0, (
            f"a late duplicate upload must merge to nothing new: {late}"
        )

        # Drain the rest of the campaign with the replacement worker.
        while True:
            response = coordinator.request("w-replacement")
            lease = response["lease"]
            if lease is None:
                assert response["done"], response
                break
            data, crc = run_shard(
                tmp, f"shard-{lease['shard']}", lease["keys"]
            )
            assert coordinator.upload(
                "w-replacement", lease["shard"], lease["token"], data, crc
            )["ok"]
            coordinator.release(
                "w-replacement", lease["shard"], lease["token"], "complete"
            )

        campaign = campaign_from_checkpoint(coordinator.artifact_path)
        assert to_csv(campaign) == ref_csv and to_json(campaign) == ref_json, (
            "blackhole-merged artifact diverged from the serial reference"
        )
    print(
        "fabric-chaos OK: heartbeat blackhole expired the lease, the shard "
        "was reassigned, and the double upload merged deterministically"
    )


def _smoke_fabric() -> int:
    _scrub_env()
    _smoke_fabric_fleet()
    _smoke_fabric_blackhole()
    return 0


# -- the network chaos smoke ---------------------------------------------------


def _net_spec():
    from repro.exec.fabric import CampaignSpec

    return CampaignSpec(
        benchmarks=(_FABRIC_BENCHMARK,),
        runs_per_model=_FABRIC_RUNS,
        seed=_FABRIC_SEED,
        scale=_FABRIC_SCALE,
        shard_size=_FABRIC_SHARD,
    )


def _net_mixes():
    """The fault-schedule matrix: every kind the injector knows, mixed the
    way real networks mix them. Each mix is (name, schedule)."""
    from repro.exec.fabric import FaultRule, FaultSchedule

    return (
        (
            "latency+drop",
            FaultSchedule(seed=101, rules=(
                FaultRule(kind="latency", p=0.3, latency_s=0.01),
                FaultRule(kind="drop", p=0.25),
            )),
        ),
        (
            "partition+heal",
            # Asymmetric outage windows per endpoint, then everything
            # heals: calls inside the window never reach the coordinator.
            FaultSchedule(seed=102, rules=(
                FaultRule(kind="partition", endpoint="request",
                          first_call=2, last_call=4),
                FaultRule(kind="partition", endpoint="upload",
                          first_call=1, last_call=3),
                FaultRule(kind="partition", endpoint="heartbeat",
                          first_call=1, last_call=5),
            )),
        ),
        (
            "garbage+duplicate",
            FaultSchedule(seed=103, rules=(
                FaultRule(kind="garbage", p=0.2),
                FaultRule(kind="duplicate", p=0.3),
            )),
        ),
        (
            "truncate+blackhole",
            # Responses destroyed *after* the request was applied — the
            # pure idempotency torture: every retry re-applies something
            # that already happened.
            FaultSchedule(seed=104, rules=(
                FaultRule(kind="truncate", endpoint="upload", p=0.25),
                FaultRule(kind="blackhole-response", endpoint="request",
                          p=0.2),
                FaultRule(kind="blackhole-response", endpoint="release",
                          p=0.5),
            )),
        ),
    )


def _net_check_artifact(coordinator, ref_csv: str, ref_json: str,
                        what: str) -> None:
    """The acceptance bar: CRC-clean and byte-identical to ``--jobs 1``."""
    from repro.analysis.export import (
        campaign_from_checkpoint,
        to_csv,
        to_json,
    )
    from repro.exec.cli import checkpoint_main

    assert checkpoint_main(["verify", coordinator.artifact_path]) == 0, (
        f"{what}: merged artifact must verify clean"
    )
    campaign = campaign_from_checkpoint(coordinator.artifact_path)
    assert not campaign.failures, f"{what}: {campaign.failures}"
    assert to_csv(campaign) == ref_csv, (
        f"{what}: CSV export diverged from the serial reference"
    )
    assert to_json(campaign) == ref_json, (
        f"{what}: JSON export diverged from the serial reference"
    )


def _smoke_net_mix(name: str, schedule, ref_csv: str, ref_json: str) -> None:
    """One fault mix: a worker behind a FaultyTransport must finish the
    campaign with a byte-identical artifact and no shard double-charged."""
    import json as json_mod
    import tempfile

    from repro.exec.fabric import (
        FabricCoordinator,
        FabricPolicy,
        FabricWorker,
        FaultyTransport,
        LocalTransport,
    )

    with tempfile.TemporaryDirectory() as tmp:
        coordinator = FabricCoordinator(
            os.path.join(tmp, "state"),
            policy=FabricPolicy(reassign_backoff_max_s=0.0),
        )
        coordinator.submit(_net_spec().to_dict())
        faulty = FaultyTransport(
            LocalTransport(coordinator),
            schedule,
            sleep=lambda s: time.sleep(min(s, 0.01)),  # test-speed latency
        )
        worker = FabricWorker(
            faulty,
            worker_id=f"net-{schedule.seed}",
            workdir=os.path.join(tmp, "work"),
            snapshot_interval=100,
            poll_s=0.05,
            sleep=lambda s: time.sleep(min(s, 0.02)),  # test-speed backoff
        )
        code = worker.run()
        assert code == 0, f"{name}: worker exited {code}"
        assert faulty.injected, (
            f"{name}: the schedule injected nothing — this mix proves "
            "nothing; widen its windows or raise its probabilities"
        )
        # A healed (or merely lossy) network must never charge a shard:
        # charges are for dead/hung workers, and this worker was neither.
        charged = [s.index for s in coordinator.shards if s.failed_workers]
        assert not charged, f"{name}: shards {charged} were double-charged"
        # The replay contract: the exact schedule rides with the artifact.
        with open(
            os.path.join(coordinator.state_dir, "fault-schedule.json"), "w"
        ) as handle:
            json_mod.dump(schedule.to_dict(), handle, sort_keys=True)
        _net_check_artifact(coordinator, ref_csv, ref_json, name)
        tally = faulty.injected_by_kind()
    print(
        f"net-chaos OK [{name}]: seed={schedule.seed}, "
        f"injected={json_mod.dumps(tally, sort_keys=True)}, "
        "artifact byte-identical to --jobs 1"
    )


def _smoke_net_auth(ref_csv: str, ref_json: str) -> None:
    """Authenticated RPC end-to-end: forgeries and replays bounce off with
    401 and no state change; the authed campaign is byte-identical; the
    secret leaks nowhere."""
    import json as json_mod
    import tempfile
    import threading as threading_mod
    import urllib.error
    import urllib.request

    from repro.exec.fabric import (
        FabricCoordinator,
        FabricRejected,
        FabricWorker,
        HttpTransport,
        NONCE_HEADER,
        SIGNATURE_HEADER,
        TIMESTAMP_HEADER,
        make_http_server,
        sign_request,
    )

    secret = b"net-chaos-shared-secret"
    with tempfile.TemporaryDirectory() as tmp:
        coordinator = FabricCoordinator(os.path.join(tmp, "state"))
        server = make_http_server(coordinator, port=0, secret=secret)
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        thread = threading_mod.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        try:
            for label, transport in (
                ("unauthenticated", HttpTransport(url, timeout_s=10.0)),
                ("wrong-secret",
                 HttpTransport(url, timeout_s=10.0, secret=b"not-it")),
            ):
                try:
                    transport.status()
                    raise AssertionError(
                        f"a {label} request must be rejected"
                    )
                except FabricRejected as exc:
                    assert exc.code == 401, f"{label}: {exc}"
            assert coordinator.spec is None, (
                "rejected requests must not have touched the coordinator"
            )

            authed = HttpTransport(url, timeout_s=10.0, secret=secret)
            authed.submit(_net_spec().to_dict())

            # A captured-and-resent request (same bytes, same nonce) is a
            # replay: first send works, second bounces with 401 and the
            # lease book doesn't move.
            body = json_mod.dumps({"worker": "replay-w"}).encode("utf-8")
            timestamp = f"{time.time():.3f}"
            nonce = "replayed-nonce-0001"
            headers = {
                "Content-Type": "application/json",
                TIMESTAMP_HEADER: timestamp,
                NONCE_HEADER: nonce,
                SIGNATURE_HEADER: sign_request(
                    secret, "POST", "/api/request", timestamp, nonce, body
                ),
            }
            first = json_mod.loads(
                urllib.request.urlopen(
                    urllib.request.Request(
                        url + "/api/request", data=body, headers=headers
                    ),
                    timeout=10.0,
                ).read()
            )
            assert first["lease"] is not None, first
            grants_before = [s.grants for s in coordinator.shards]
            try:
                urllib.request.urlopen(
                    urllib.request.Request(
                        url + "/api/request", data=body, headers=headers
                    ),
                    timeout=10.0,
                )
                raise AssertionError("a replayed request must be rejected")
            except urllib.error.HTTPError as exc:
                assert exc.code == 401, exc
            assert [s.grants for s in coordinator.shards] == grants_before, (
                "the replay mutated the lease book"
            )
            authed.release(
                "replay-w", first["lease"]["shard"],
                first["lease"]["token"], "drain",
            )

            # The authed fleet must produce the same bytes as anyone else.
            worker = FabricWorker(
                authed,
                worker_id="auth-w",
                workdir=os.path.join(tmp, "work"),
                snapshot_interval=100,
                poll_s=0.05,
            )
            assert worker.run() == 0
            _net_check_artifact(coordinator, ref_csv, ref_json, "auth")

            # The secret must appear in no status output and no artifact.
            status_blob = json_mod.dumps(authed.status())
            with open(coordinator.artifact_path, "rb") as handle:
                artifact_blob = handle.read()
            assert secret.decode() not in status_blob, "secret in status"
            assert secret not in artifact_blob, "secret in artifact"
        finally:
            server.shutdown()
            thread.join(timeout=5.0)
    print(
        "net-chaos OK [auth]: unauthenticated/wrong-secret/replayed all "
        "401 without state change; authed artifact byte-identical; "
        "secret leaked nowhere"
    )


def _smoke_net_breaker(ref_csv: str, ref_json: str) -> None:
    """Permanent partition: the breaker trips, partial work is sealed to
    the workdir, the worker exits 75 — and the documented resume (restart
    in the same workdir once the network heals) completes the campaign
    byte-identically. Runs on a fake clock so 'five minutes offline'
    takes milliseconds."""
    import tempfile

    from repro.exec.durability import SHUTDOWN_EXIT_CODE
    from repro.exec.fabric import (
        FabricCoordinator,
        FabricWorker,
        FaultRule,
        FaultSchedule,
        FaultyTransport,
        LocalTransport,
    )

    # Everything except the very first work request is partitioned away:
    # the worker wins a lease, computes, and then finds the world gone.
    schedule = FaultSchedule(seed=105, rules=(
        FaultRule(kind="partition", endpoint="request", first_call=2),
        FaultRule(kind="partition", endpoint="heartbeat"),
        FaultRule(kind="partition", endpoint="upload"),
        FaultRule(kind="partition", endpoint="release"),
    ))
    clock_now = [0.0]

    def advancing_sleep(seconds: float) -> None:
        clock_now[0] += seconds

    with tempfile.TemporaryDirectory() as tmp:
        workdir = os.path.join(tmp, "work")
        coordinator = FabricCoordinator(os.path.join(tmp, "state"))
        coordinator.submit(_net_spec().to_dict())
        worker = FabricWorker(
            FaultyTransport(LocalTransport(coordinator), schedule),
            worker_id="breaker-w",
            workdir=workdir,
            snapshot_interval=100,
            poll_s=0.05,
            offline_budget_s=1.0,
            clock=lambda: clock_now[0],
            sleep=advancing_sleep,
        )
        code = worker.run()
        assert code == SHUTDOWN_EXIT_CODE, (
            f"a permanent partition must exit {SHUTDOWN_EXIT_CODE}, "
            f"got {code}"
        )
        assert worker.offline, "the breaker must mark the run offline"
        assert worker.sealed_paths and all(
            os.path.exists(path) for path in worker.sealed_paths
        ), "partial work must be sealed to the workdir"
        assert coordinator.status()["done_tasks"] == 0, (
            "nothing can have crossed a total partition"
        )
        print(
            "net-chaos: breaker tripped after "
            f"{worker.offline_budget_s:.0f}s (fake) offline; sealed "
            f"{len(worker.sealed_paths)} partial(s); exit {code}"
        )

        # The resume hint, executed: same workdir, healed network.
        resumed = FabricWorker(
            LocalTransport(coordinator),
            worker_id="breaker-w",
            workdir=workdir,
            snapshot_interval=100,
            poll_s=0.05,
        )
        assert resumed.run() == 0
        leftovers = [
            path for path in worker.sealed_paths if os.path.exists(path)
        ]
        assert not leftovers, (
            f"recovered seals must be deleted, found {leftovers}"
        )
        _net_check_artifact(coordinator, ref_csv, ref_json, "breaker-resume")
    print(
        "net-chaos OK [breaker]: sealed partial recovered on restart, "
        "campaign completed byte-identical to --jobs 1"
    )


def _smoke_net() -> int:
    _scrub_env()
    ref_csv, ref_json = _fabric_reference()
    for name, schedule in _net_mixes():
        _smoke_net_mix(name, schedule, ref_csv, ref_json)
    _smoke_net_auth(ref_csv, ref_json)
    _smoke_net_breaker(ref_csv, ref_json)
    return 0


if __name__ == "__main__":
    import sys

    if len(sys.argv) > 2 and sys.argv[1] == "--batch-child":
        raise SystemExit(_batch_child(sys.argv[2]))
    if len(sys.argv) > 1 and sys.argv[1] == "--fabric":
        raise SystemExit(_smoke_fabric())
    if len(sys.argv) > 1 and sys.argv[1] == "--net":
        raise SystemExit(_smoke_net())
    raise SystemExit(_smoke())
