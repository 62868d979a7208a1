"""Chaos scenarios for the fault-tolerant execution layer.

Each test injects a real fault (worker kill, deterministic raiser, hung
task) into a real small campaign through the :mod:`repro.exec.chaos`
hooks and asserts the recovery contract: the campaign completes, exactly
the sabotaged tasks are quarantined with the right failure kind, every
surviving result is bit-identical to a clean run, and a resume skips
quarantined tasks.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.bugs.models import PRIMARY_MODELS
from repro.core.cpu import OoOCore
from repro.core.errors import DeadlineExceeded, SimulationError
from repro.exec.backends import ProcessPoolBackend, SerialBackend
from repro.exec.chaos import ALL_ENV_VARS, ChaosError, chaos_env, chaos_runner
from repro.exec.checkpoint import (
    CheckpointWriter,
    load_checkpoint_full,
    manifest_for,
)
from repro.exec.engine import run_engine
from repro.exec.resilience import (
    AttemptTracker,
    FaultPolicy,
    FaultToleranceError,
    TaskFailure,
    backoff_with_jitter,
    failure_from_exception,
)
from repro.exec.tasks import generate_tasks
from repro.workloads import WORKLOADS

RUNS = 2  # 2 runs x 3 models x 1 benchmark = 6 tasks
SEED = 7


@pytest.fixture(scope="module")
def tiny_suite():
    return {"bitcount": WORKLOADS["bitcount"](scale=0.25)}


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
    policy = FaultPolicy(max_task_retries=1, backoff_base_s=0.01)
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
        backoff_base_s=0.01,
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


# -- repeated pool breakage degrades to in-process serial ---------------------


def test_exit_in_worker_degrades_to_serial_and_completes(
    tiny_suite, tiny_tasks, clean_campaign, monkeypatch
):
    # Every task kills any *pool worker* it lands on, so the pool can never
    # make progress; the in-process fallback must finish the whole campaign
    # (where the same tasks run clean, because the parent is not a worker).
    _set_env(monkeypatch, exit_in_worker_keys=[t.key for t in tiny_tasks])
    policy = FaultPolicy(
        max_task_retries=4, max_pool_respawns=1, backoff_base_s=0.01
    )
    campaign = run_engine(
        tiny_suite,
        RUNS,
        seed=SEED,
        backend=ProcessPoolBackend(2, policy=policy),
        task_runner=chaos_runner,
    )
    assert campaign.failures == []
    _assert_survivors_match(campaign, clean_campaign, tiny_tasks, set())


def test_no_fallback_serial_fails_hard(tiny_suite, tiny_tasks, monkeypatch):
    _set_env(monkeypatch, exit_in_worker_keys=[t.key for t in tiny_tasks])
    policy = FaultPolicy(
        max_task_retries=4,
        max_pool_respawns=0,
        backoff_base_s=0.01,
        fallback_serial=False,
    )
    with pytest.raises(FaultToleranceError):
        list(
            run_engine(
                tiny_suite,
                RUNS,
                seed=SEED,
                backend=ProcessPoolBackend(2, policy=policy),
                task_runner=chaos_runner,
            ).results
        )


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
    writer = CheckpointWriter(path, manifest)
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


def test_fault_policy_validation():
    with pytest.raises(ValueError):
        FaultPolicy(task_timeout_s=0)
    with pytest.raises(ValueError):
        FaultPolicy(max_task_retries=-1)
    with pytest.raises(ValueError):
        FaultPolicy(max_pool_respawns=-1)
    assert FaultPolicy(task_timeout_s=2.0, watchdog_grace_s=1.0).hang_timeout_s == 3.0
    assert FaultPolicy().hang_timeout_s is None


def test_backoff_is_exponential_and_capped():
    # Jitter off: the deterministic exponential-with-cap schedule.
    policy = FaultPolicy(backoff_base_s=1.0, backoff_max_s=4.0, backoff_jitter=0.0)
    assert [policy.backoff_s(n) for n in (1, 2, 3, 4)] == [1.0, 2.0, 4.0, 4.0]


def test_backoff_jitter_bounds_and_decorrelation():
    policy = FaultPolicy(backoff_base_s=1.0, backoff_max_s=4.0)  # jitter 0.5
    rng = random.Random(7)
    draws = [policy.backoff_s(3, rng=rng) for _ in range(64)]
    # Every draw stays inside [ceiling/2, ceiling] ...
    assert all(2.0 <= d <= 4.0 for d in draws)
    # ... and the draws genuinely spread out (no thundering herd).
    assert len({round(d, 6) for d in draws}) > 32


def test_backoff_with_jitter_helper():
    rng = random.Random(1)
    assert backoff_with_jitter(1, 0.5, 30.0, jitter=0.0) == 0.5
    assert backoff_with_jitter(9, 0.5, 30.0, jitter=0.0) == 30.0
    jittered = backoff_with_jitter(2, 0.5, 30.0, jitter=1.0, rng=rng)
    assert 0.0 <= jittered <= 1.0
    with pytest.raises(ValueError):
        FaultPolicy(backoff_jitter=1.5)


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


def test_checkpoint_fsync_mode(tiny_suite, tiny_tasks, tmp_path):
    clean = run_engine(tiny_suite, RUNS, seed=SEED, backend=SerialBackend())
    path = str(tmp_path / "chk.jsonl")
    manifest = manifest_for(
        SEED, RUNS, list(PRIMARY_MODELS), list(tiny_suite), 6, clean.goldens
    )
    with CheckpointWriter(path, manifest, fsync=True) as writer:
        assert writer.fsync
        writer.write_result(tiny_tasks[0], clean.results[0])
    with open(path) as handle:
        records = [json.loads(line) for line in handle]
    assert [r["type"] for r in records] == ["manifest", "result"]


# -- backoff properties (hypothesis) -------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=200, deadline=None)
@given(
    attempt=st.integers(min_value=1, max_value=10**9),
    base_s=st.floats(min_value=1e-3, max_value=100.0),
    cap_factor=st.floats(min_value=1.0, max_value=1e6),
    jitter=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_backoff_always_within_bounds(attempt, base_s, cap_factor, jitter, seed):
    """The delay is never negative and never exceeds the cap, for any
    attempt count — including ones whose naive 2**attempt overflows."""
    max_s = base_s * cap_factor
    delay = backoff_with_jitter(
        attempt, base_s, max_s, jitter=jitter, rng=random.Random(seed)
    )
    assert 0.0 <= delay <= max_s


@settings(max_examples=200, deadline=None)
@given(
    attempt=st.integers(min_value=1, max_value=10**9),
    base_s=st.floats(min_value=1e-3, max_value=100.0),
    cap_factor=st.floats(min_value=1.0, max_value=1e6),
)
def test_backoff_unjittered_within_base_and_cap(attempt, base_s, cap_factor):
    """Without jitter the delay lies in [base, cap] exactly: the first
    attempt waits the base, deep attempts saturate at the cap."""
    max_s = base_s * cap_factor
    delay = backoff_with_jitter(attempt, base_s, max_s, jitter=0.0)
    assert base_s <= delay <= max_s or delay == max_s  # base_s may exceed cap
    assert backoff_with_jitter(1, base_s, max_s, jitter=0.0) == min(
        base_s, max_s
    )


@settings(max_examples=100, deadline=None)
@given(
    base_s=st.floats(min_value=1e-3, max_value=10.0),
    cap_factor=st.floats(min_value=1.0, max_value=1e3),
    jitter=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_backoff_huge_attempts_hit_the_cap_exactly(
    base_s, cap_factor, jitter, seed
):
    """Astronomical attempt counts behave exactly like 'at the cap': no
    overflow, and the jittered draw equals the cap's jittered draw."""
    max_s = base_s * cap_factor
    at_cap = backoff_with_jitter(
        10**6, base_s, max_s, jitter=jitter, rng=random.Random(seed)
    )
    astronomical = backoff_with_jitter(
        10**9, base_s, max_s, jitter=jitter, rng=random.Random(seed)
    )
    assert astronomical == at_cap
    assert astronomical <= max_s


def test_backoff_nonpositive_inputs_yield_zero():
    assert backoff_with_jitter(3, 0.0, 5.0) == 0.0
    assert backoff_with_jitter(3, 1.0, 0.0) == 0.0
    assert backoff_with_jitter(3, -1.0, 5.0) == 0.0

