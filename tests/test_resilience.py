"""Chaos scenarios for the fault-tolerant execution layer.

Each test injects a real fault (worker kill, deterministic raiser, hung
task) into a real small campaign through the :mod:`repro.exec.chaos`
hooks and asserts the recovery contract: the campaign completes, exactly
the sabotaged tasks are quarantined with the right failure kind, every
surviving result is bit-identical to a clean run, and a resume skips
quarantined tasks. The pool's worker contract (a lost worker costs one
attempt of its own task and only it is replaced; workers ignore SIGINT;
every worker is reaped) is checked task by task with a probe runner.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

import pytest

from repro.analysis.export import campaign_from_checkpoint
from repro.bugs.models import PRIMARY_MODELS
from repro.core.cpu import OoOCore
from repro.core.errors import DeadlineExceeded, SimulationError
import repro.exec.backends as backends
from repro.exec.backends import (
    ExecutionContext,
    ProcessPoolBackend,
    SerialBackend,
)
from repro.exec.chaos import (
    ALL_ENV_VARS,
    ENV_EXIT,
    EXIT_STATUS,
    ChaosError,
    chaos_env,
    chaos_runner,
)
from repro.exec.checkpoint import (
    CheckpointWriter,
    load_checkpoint_full,
    manifest_for,
)
from repro.cli import StopGuard
from repro.exec.engine import run_engine
from repro.exec.resilience import (
    AttemptTracker,
    FaultPolicy,
    FaultToleranceError,
    TaskFailure,
    failure_from_exception,
)
from repro.exec.tasks import generate_tasks
from repro.workloads import WORKLOADS

RUNS = 2  # 2 runs x 3 models x 1 benchmark = 6 tasks
SEED = 7

#: The repository root: the pool-contract child imports this module from it.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tiny_suite():
    return {"bitcount": WORKLOADS["bitcount"](scale=0.25)}


@pytest.fixture(scope="module")
def tiny_suite():
    return _tiny_suite()


@pytest.fixture(scope="module")
def tiny_tasks(tiny_suite):
    return generate_tasks(
        list(tiny_suite), RUNS, list(PRIMARY_MODELS), SEED, 6
    )


@pytest.fixture(scope="module")
def clean_campaign(tiny_suite):
    return run_engine(tiny_suite, RUNS, seed=SEED, backend=SerialBackend())


@pytest.fixture(autouse=True)
def scrub_chaos_env(monkeypatch):
    for name in ALL_ENV_VARS:
        monkeypatch.delenv(name, raising=False)


def _set_env(monkeypatch, **kwargs):
    for name, value in chaos_env(**kwargs).items():
        monkeypatch.setenv(name, value)


def _comparable(result):
    from repro.exec.checkpoint import result_to_dict

    record = result_to_dict(result)
    record.pop("sim_wall_ns")  # a measurement, not a simulation outcome
    return record


def _assert_survivors_match(campaign, clean_campaign, tiny_tasks, bad_keys):
    clean_by_key = {
        task.key: _comparable(result)
        for task, result in zip(tiny_tasks, clean_campaign.results)
    }
    surviving_tasks = [t for t in tiny_tasks if t.key not in bad_keys]
    assert len(campaign.results) == len(surviving_tasks)
    for task, result in zip(surviving_tasks, campaign.results):
        assert _comparable(result) == clean_by_key[task.key]


# -- the pool survives a worker kill mid-task ---------------------------------


def test_worker_exit_is_quarantined_and_survivors_match(
    tiny_suite, tiny_tasks, clean_campaign, monkeypatch
):
    kill_key = tiny_tasks[1].key
    _set_env(monkeypatch, exit_keys=[kill_key])
    policy = FaultPolicy(max_task_retries=1)
    campaign = run_engine(
        tiny_suite,
        RUNS,
        seed=SEED,
        backend=ProcessPoolBackend(2, policy=policy),
        task_runner=chaos_runner,
    )
    assert [r.key for r in campaign.failures] == [kill_key]
    failure = campaign.failures[0].failure
    assert failure.kind == "worker-crash"
    assert failure.attempts == policy.max_attempts_per_task
    _assert_survivors_match(campaign, clean_campaign, tiny_tasks, {kill_key})


# -- a deterministic raiser poisons only itself -------------------------------


def test_poison_task_quarantined_campaign_completes(
    tiny_suite, tiny_tasks, clean_campaign, monkeypatch
):
    poison_key = tiny_tasks[3].key
    _set_env(monkeypatch, raise_keys=[poison_key])
    policy = FaultPolicy(max_task_retries=2)
    campaign = run_engine(
        tiny_suite,
        RUNS,
        seed=SEED,
        backend=SerialBackend(policy=policy),
        task_runner=chaos_runner,
    )
    assert [r.key for r in campaign.failures] == [poison_key]
    failure = campaign.failures[0].failure
    assert failure.kind == "exception"
    assert failure.attempts == 3
    assert "ChaosError" in failure.message
    assert "ChaosError" in failure.traceback
    _assert_survivors_match(
        campaign, clean_campaign, tiny_tasks, {poison_key}
    )


def test_strict_mode_raises_instead_of_quarantining(
    tiny_suite, tiny_tasks, monkeypatch
):
    _set_env(monkeypatch, raise_keys=[tiny_tasks[0].key])
    policy = FaultPolicy(max_task_retries=0, strict=True)
    with pytest.raises(FaultToleranceError):
        run_engine(
            tiny_suite,
            RUNS,
            seed=SEED,
            backend=SerialBackend(policy=policy),
            task_runner=chaos_runner,
        )


# -- a backend built without a policy fails fast ------------------------------


@pytest.mark.parametrize(
    "backend", [SerialBackend, lambda: ProcessPoolBackend(2)],
    ids=["serial", "pool"],
)
def test_fail_fast_raises_naming_task_and_error(
    backend, tiny_suite, tiny_tasks, monkeypatch
):
    """FAIL_FAST: no retry, and the first failing task stops the run with
    its key, its failure kind and the original ``Type: message``."""
    poison_key = tiny_tasks[3].key
    _set_env(monkeypatch, raise_keys=[poison_key])
    with pytest.raises(FaultToleranceError) as excinfo:
        run_engine(
            tiny_suite, RUNS, seed=SEED, backend=backend(),
            task_runner=chaos_runner,
        )
    message = str(excinfo.value)
    assert f"task {poison_key} failed after 1 attempt(s)" in message
    assert "[exception]: ChaosError: chaos: deterministic failure" in message


def test_fail_fast_pool_names_a_worker_crash(
    tiny_suite, tiny_tasks, monkeypatch
):
    kill_key = tiny_tasks[1].key
    _set_env(monkeypatch, exit_keys=[kill_key])
    with pytest.raises(FaultToleranceError) as excinfo:
        run_engine(
            tiny_suite, RUNS, seed=SEED, backend=ProcessPoolBackend(2),
            task_runner=chaos_runner,
        )
    assert f"task {kill_key} failed" in str(excinfo.value)
    assert "[worker-crash]" in str(excinfo.value)


# -- a hung task is killed by the parent watchdog -----------------------------


def test_hung_task_hits_watchdog_timeout(
    tiny_suite, tiny_tasks, clean_campaign, monkeypatch
):
    hang_key = tiny_tasks[2].key
    _set_env(monkeypatch, hang_keys=[hang_key], hang_s=120.0)
    policy = FaultPolicy(
        task_timeout_s=3.0,
        watchdog_grace_s=1.0,
        max_task_retries=0,
    )
    campaign = run_engine(
        tiny_suite,
        RUNS,
        seed=SEED,
        backend=ProcessPoolBackend(2, policy=policy),
        task_runner=chaos_runner,
    )
    assert [r.key for r in campaign.failures] == [hang_key]
    failure = campaign.failures[0].failure
    assert failure.kind == "timeout"
    assert failure.attempts == 1
    _assert_survivors_match(campaign, clean_campaign, tiny_tasks, {hang_key})


# -- the cooperative deadline inside the simulator ----------------------------


def test_cooperative_deadline_raises_and_is_not_a_sim_error():
    # Needs a program that runs past cycle 1024, where the first of the
    # periodic deadline checks happens (tiny bitcount halts before that).
    core = OoOCore(WORKLOADS["dijkstra"]())
    with pytest.raises(DeadlineExceeded) as excinfo:
        core.run(deadline=0.0)  # long expired; trips at the first check
    assert not isinstance(excinfo.value, SimulationError)
    assert excinfo.value.cycle > 0
    assert failure_from_exception(excinfo.value, 1).kind == "timeout"


# -- a lost worker costs exactly its own task ----------------------------------


def pool_campaign(path: str, retries: int) -> None:
    """The pool-contract child: the tiny campaign on a 2-worker pool under
    the inherited chaos plan, checkpointed to ``path``."""
    run_engine(
        _tiny_suite(),
        RUNS,
        seed=SEED,
        backend=ProcessPoolBackend(
            2, policy=FaultPolicy(max_task_retries=retries)
        ),
        checkpoint_path=path,
        task_runner=chaos_runner,
    )


def _run_pool_child(path, retries, exit_keys):
    """Run :func:`pool_campaign` in a child process, so a pool that runs a
    killer task in its own process fails the test on the child's exit
    status instead of killing the test run."""
    env = {k: v for k, v in os.environ.items() if k not in ALL_ENV_VARS}
    env[ENV_EXIT] = ",".join(exit_keys)
    return subprocess.run(
        [
            sys.executable, "-c",
            "import sys; from tests.test_resilience import pool_campaign; "
            "pool_campaign(sys.argv[1], int(sys.argv[2]))",
            path, str(retries),
        ],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_worker_killer_is_charged_every_attempt_and_survivors_match(
    tiny_tasks, clean_campaign, tmp_path
):
    """Each death of the killer's worker is one attempt against the
    killer alone: it is quarantined after all five, and every other task
    completes on the pool with its clean serial result."""
    kill_key = tiny_tasks[1].key
    path = str(tmp_path / "killer.jsonl")
    child = _run_pool_child(path, retries=4, exit_keys=[kill_key])
    assert child.returncode == 0, child.stderr
    campaign = campaign_from_checkpoint(path)
    assert [r.key for r in campaign.failures] == [kill_key]
    failure = campaign.failures[0].failure
    assert failure.kind == "worker-crash"
    assert failure.attempts == 5
    _assert_survivors_match(campaign, clean_campaign, tiny_tasks, {kill_key})


def test_every_task_killing_its_worker_quarantines_all_in_the_pool(
    tiny_tasks, tmp_path
):
    """A pool that never completes a task still charges each loss to the
    task its worker held: every task is quarantined after its own
    attempts, and none runs in the parent (which would die with it)."""
    policy = FaultPolicy(max_task_retries=2)
    path = str(tmp_path / "all-killers.jsonl")
    child = _run_pool_child(
        path, policy.max_task_retries, [t.key for t in tiny_tasks]
    )
    assert child.returncode == 0, child.stderr
    campaign = campaign_from_checkpoint(path)
    assert campaign.results == []
    assert [r.key for r in campaign.failures] == [t.key for t in tiny_tasks]
    for record in campaign.failures:
        assert record.failure.kind == "worker-crash"
        assert record.failure.attempts == policy.max_attempts_per_task


def test_pool_charges_a_worker_side_exception_in_the_parent(
    tiny_suite, tiny_tasks, clean_campaign, monkeypatch
):
    """A task that raises in a pool worker comes back as a failure record;
    the parent charges each attempt, and the worker lives on."""
    poison_key = tiny_tasks[3].key
    _set_env(monkeypatch, raise_keys=[poison_key])
    campaign = run_engine(
        tiny_suite,
        RUNS,
        seed=SEED,
        backend=ProcessPoolBackend(2, policy=FaultPolicy(max_task_retries=2)),
        task_runner=chaos_runner,
    )
    assert [r.key for r in campaign.failures] == [poison_key]
    failure = campaign.failures[0].failure
    assert failure.kind == "exception"
    assert failure.attempts == 3
    assert "ChaosError" in failure.message
    assert "ChaosError" in failure.traceback
    _assert_survivors_match(
        campaign, clean_campaign, tiny_tasks, {poison_key}
    )


def test_strict_pool_raises_on_a_worker_crash_after_its_retries(
    tiny_suite, tiny_tasks, monkeypatch
):
    kill_key = tiny_tasks[1].key
    _set_env(monkeypatch, exit_keys=[kill_key])
    policy = FaultPolicy(max_task_retries=1, strict=True)
    with pytest.raises(FaultToleranceError) as excinfo:
        run_engine(
            tiny_suite, RUNS, seed=SEED,
            backend=ProcessPoolBackend(2, policy=policy),
            task_runner=chaos_runner,
        )
    message = str(excinfo.value)
    assert (
        f"task {kill_key} failed after 2 attempt(s) [worker-crash]" in message
    )
    assert f"exit code {EXIT_STATUS}" in message


# -- the pool's worker contract, task by task ---------------------------------


@dataclass(frozen=True)
class _Probe:
    """A minimal pool task. ``action`` is ``report``, ``exit`` (kill the
    worker on every attempt) or ``exit-once`` (kill it on the first
    attempt only); ``logdir`` collects one line per execution."""

    key: str
    logdir: str
    action: str = "report"
    sleep_s: float = 0.0


def _probe_runner(task: _Probe, context: ExecutionContext) -> tuple:
    """Log the execution, act out ``task.action``, and report the worker's
    pid and its SIGINT and SIGTERM dispositions."""
    with open(os.path.join(task.logdir, task.key), "a") as log:
        log.write(f"{os.getpid()}\n")
    crashed = os.path.join(task.logdir, task.key + ".crashed")
    if task.action == "exit-once" and not os.path.exists(crashed):
        open(crashed, "w").close()
        os._exit(EXIT_STATUS)
    if task.action == "exit":
        os._exit(EXIT_STATUS)
    time.sleep(task.sleep_s)
    return (
        os.getpid(),
        signal.getsignal(signal.SIGINT),
        signal.getsignal(signal.SIGTERM),
    )


def _executions(task: _Probe) -> list:
    """The pids that ran ``task``, one per execution."""
    with open(os.path.join(task.logdir, task.key)) as log:
        return [int(line) for line in log]


@pytest.fixture
def started_workers(monkeypatch):
    """The pids of every pool worker started during the test, in order."""
    pids = []

    class RecordingWorker(backends._Worker):
        def __init__(self, args):
            super().__init__(args)
            pids.append(self.process.pid)

    monkeypatch.setattr(backends, "_Worker", RecordingWorker)
    return pids


def _run_probes(tasks, policy=None):
    backend = ProcessPoolBackend(2, policy=policy or FaultPolicy())
    context = ExecutionContext({}, runner=_probe_runner)
    return {task.key: outcome for task, outcome in backend.run(tasks, context)}


def test_pool_workers_ignore_sigint_and_restore_default_sigterm(tmp_path):
    """A Ctrl-C reaches the whole process group; workers ignore it so the
    parent alone decides what it means, and they drop the SIGTERM handler
    they inherit from a CLI's stop guard so the parent can always stop
    them."""
    tasks = [_Probe(f"t{i}", str(tmp_path)) for i in range(4)]
    with StopGuard("campaign", None):
        outcomes = _run_probes(tasks)
    assert len(outcomes) == len(tasks)
    for pid, on_sigint, on_sigterm in outcomes.values():
        assert pid != os.getpid()
        assert on_sigint == signal.SIG_IGN
        assert on_sigterm == signal.SIG_DFL


def test_a_lost_worker_is_the_only_worker_replaced(tmp_path, started_workers):
    """Each death of the killer's worker costs the killer one attempt and
    starts one replacement; the task running beside it finishes in its
    original worker, and no task runs twice."""
    logdir = str(tmp_path)
    beside = _Probe("beside", logdir, sleep_s=0.5)
    others = [_Probe(f"t{i}", logdir) for i in range(4)]
    killer = _Probe("killer", logdir, action="exit")
    outcomes = _run_probes(
        [killer, beside] + others, policy=FaultPolicy(max_task_retries=2)
    )
    failure = outcomes.pop("killer")
    assert isinstance(failure, TaskFailure)
    assert failure.kind == "worker-crash" and failure.attempts == 3
    assert f"exit code {EXIT_STATUS}" in failure.message
    assert len(started_workers) == 2 + failure.attempts
    assert _executions(beside) == [started_workers[1]]
    for task in [beside] + others:
        assert len(_executions(task)) == 1
        assert outcomes[task.key][0] in started_workers


def test_a_crashed_task_is_retried_on_the_replacement(
    tmp_path, started_workers
):
    logdir = str(tmp_path)
    flaky = _Probe("flaky", logdir, action="exit-once")
    outcomes = _run_probes(
        [flaky, _Probe("steady", logdir)],
        policy=FaultPolicy(max_task_retries=1),
    )
    assert not any(isinstance(o, TaskFailure) for o in outcomes.values())
    assert len(started_workers) == 3
    first, retry = _executions(flaky)
    assert first == started_workers[0]
    assert retry == outcomes["flaky"][0] == started_workers[2]


@pytest.mark.parametrize("taken", [None, 1], ids=["to-the-end", "abandoned"])
def test_pool_reaps_every_worker_it_started(taken, tmp_path, started_workers):
    """Whether the engine drains the pool or stops reading after one
    outcome, every worker the pool started, a crashed one included, is
    stopped and reaped when the run ends."""
    logdir = str(tmp_path)
    tasks = [_Probe("killer", logdir, action="exit")] + [
        _Probe(f"t{i}", logdir, sleep_s=0.05) for i in range(5)
    ]
    run = ProcessPoolBackend(2, policy=FaultPolicy(max_task_retries=0)).run(
        tasks, ExecutionContext({}, runner=_probe_runner)
    )
    outcomes = list(itertools.islice(run, taken))
    run.close()
    assert len(outcomes) == (taken or len(tasks))
    assert len(started_workers) >= 2
    for pid in started_workers:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)  # already reaped


# -- resume skips quarantined tasks -------------------------------------------


def test_resume_after_quarantine_executes_nothing(
    tiny_suite, tiny_tasks, monkeypatch, tmp_path
):
    poison_key = tiny_tasks[4].key
    _set_env(monkeypatch, raise_keys=[poison_key])
    path = str(tmp_path / "chk.jsonl")
    policy = FaultPolicy(max_task_retries=0)
    first = run_engine(
        tiny_suite,
        RUNS,
        seed=SEED,
        backend=SerialBackend(policy=policy),
        checkpoint_path=path,
        task_runner=chaos_runner,
    )
    assert first.quarantined == 1

    _, done, quarantined = load_checkpoint_full(path)
    assert set(quarantined) == {poison_key}
    assert len(done) == len(tiny_tasks) - 1

    events = []
    resumed = run_engine(
        tiny_suite,
        RUNS,
        seed=SEED,
        backend=SerialBackend(policy=policy),
        checkpoint_path=path,
        resume=True,
        observers=[events.append],
        task_runner=chaos_runner,
    )
    executed = sum(1 for e in events if e.benchmark is not None)
    assert executed == 0
    assert events and events[-1].failed == 1
    assert [r.key for r in resumed.failures] == [poison_key]
    assert len(resumed.results) == len(tiny_tasks) - 1


def test_checkpoint_result_supersedes_failure(tiny_suite, tiny_tasks, tmp_path):
    # A retry that eventually succeeded outranks its older failure record.
    clean = run_engine(
        tiny_suite, RUNS, seed=SEED, backend=SerialBackend()
    )
    path = str(tmp_path / "chk.jsonl")
    context_goldens = clean.goldens
    manifest = manifest_for(
        SEED, RUNS, list(PRIMARY_MODELS), list(tiny_suite), 6, context_goldens
    )
    writer = CheckpointWriter(path)
    writer.begin(manifest)
    victim = tiny_tasks[0]
    writer.write_failure(
        victim, TaskFailure(kind="worker-crash", attempts=2, message="boom")
    )
    writer.write_result(victim, clean.results[0])
    writer.close()
    _, done, quarantined = load_checkpoint_full(path)
    assert victim.key in done
    assert quarantined == {}


# -- the fuzz engine quarantines too ------------------------------------------


def test_fuzz_quarantine_and_resume(monkeypatch, tmp_path):
    import repro.fuzz.engine as fuzz_engine
    from repro.fuzz.engine import load_fuzz_checkpoint_full, run_fuzz

    real_evaluate = fuzz_engine.evaluate

    def flaky_evaluate(program, **kwargs):
        if program.name == "fuzz3":
            raise ChaosError("boom")
        return real_evaluate(program, **kwargs)

    monkeypatch.setattr(fuzz_engine, "evaluate", flaky_evaluate)
    path = str(tmp_path / "fuzz.jsonl")
    policy = FaultPolicy(max_task_retries=0)
    summary = run_fuzz(
        seed=5,
        budget=8,
        batch=4,
        backend=SerialBackend(policy=policy),
        checkpoint_path=path,
    )
    assert summary.quarantined == 1
    assert summary.task_failures[3].kind == "exception"
    assert any("quarantined: 1" in line for line in summary.report_lines())

    _, done, failures = load_fuzz_checkpoint_full(path)
    assert set(failures) == {3}
    assert len(done) == 7

    resumed = run_fuzz(
        seed=5,
        budget=8,
        batch=4,
        backend=SerialBackend(policy=policy),
        checkpoint_path=path,
        resume=True,
    )
    assert resumed.executed == 0
    assert resumed.restored == 8
    assert resumed.quarantined == 1
    assert len(resumed.coverage) == len(summary.coverage)


# -- satellites ---------------------------------------------------------------


def test_pool_jobs_validation():
    with pytest.raises(ValueError):
        ProcessPoolBackend(0)
    ProcessPoolBackend(1)  # the minimum is fine


def test_context_runs_injections_through_the_module_runner(
    tiny_suite, tiny_tasks, clean_campaign, monkeypatch
):
    """``ExecutionContext`` has one dispatch: its runner, which defaults to
    ``run_injection_task``. That runner looks ``execute_task`` up in the
    backends module at call time, so a wrapper installed there (as
    perfbench's trace does) sees every task."""
    context = ExecutionContext(tiny_suite)
    assert context.runner is backends.run_injection_task
    seen = []
    execute_task = backends.execute_task

    def recording(task, *args, **kwargs):
        seen.append(task.key)
        return execute_task(task, *args, **kwargs)

    monkeypatch.setattr(backends, "execute_task", recording)
    results = [context.execute(task) for task in tiny_tasks]
    assert results == clean_campaign.results
    assert seen == [task.key for task in tiny_tasks]


def test_chaos_runner_without_a_plan_is_the_injection_runner(
    tiny_suite, tiny_tasks, clean_campaign
):
    """With no ``REPRO_CHAOS_*`` plan, the chaos runner sabotages nothing
    and returns what the injection runner returns."""
    context = ExecutionContext(tiny_suite, runner=chaos_runner)
    results = [context.execute(task) for task in tiny_tasks]
    assert results == clean_campaign.results
    assert results == [
        backends.run_injection_task(task, context) for task in tiny_tasks
    ]


def test_fault_policy_validation():
    with pytest.raises(ValueError):
        FaultPolicy(task_timeout_s=0)
    with pytest.raises(ValueError):
        FaultPolicy(max_task_retries=-1)
    assert FaultPolicy(task_timeout_s=2.0, watchdog_grace_s=1.0).hang_timeout_s == 3.0
    assert FaultPolicy().hang_timeout_s is None


def test_fault_policy_has_only_the_four_tuning_fields():
    """A lost pool worker costs only its own task, so there is no respawn
    budget, backoff schedule or serial fallback left to tune."""
    assert [f.name for f in dataclasses.fields(FaultPolicy)] == [
        "task_timeout_s",
        "watchdog_grace_s",
        "max_task_retries",
        "strict",
    ]


def test_attempt_tracker():
    tracker = AttemptTracker(FaultPolicy(max_task_retries=1))
    assert not tracker.exhausted("t")
    assert tracker.record_attempt("t") == 1
    assert not tracker.exhausted("t")
    assert tracker.record_attempt("t") == 2
    assert tracker.exhausted("t")
    assert tracker.attempts("other") == 0


def test_failure_roundtrip_and_classification():
    try:
        raise ChaosError("nope")
    except ChaosError as exc:
        failure = failure_from_exception(exc, attempts=2)
    assert failure.kind == "exception"
    assert TaskFailure.from_record(failure.to_record()) == failure


def test_checkpoint_fsync_mode(tiny_suite, tiny_tasks, tmp_path, monkeypatch):
    """``fsync=True`` syncs each appended record, the manifest included,
    as it is written; without it the writer never syncs."""
    clean = run_engine(tiny_suite, RUNS, seed=SEED, backend=SerialBackend())
    manifest = manifest_for(
        SEED, RUNS, list(PRIMARY_MODELS), list(tiny_suite), 6, clean.goldens
    )
    synced = []
    real_fsync = os.fsync

    def counting_fsync(fd):
        synced.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    for fsync in (True, False):
        synced.clear()
        path = str(tmp_path / f"chk-{fsync}.jsonl")
        with CheckpointWriter(path, fsync=fsync) as writer:
            writer.begin(manifest)
            assert len(synced) == int(fsync)
            writer.write_result(tiny_tasks[0], clean.results[0])
            assert len(synced) == 2 * int(fsync)
        with open(path) as handle:
            records = [json.loads(line) for line in handle]
        assert [r["type"] for r in records] == ["manifest", "result"]
