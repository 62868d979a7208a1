"""Pluggable campaign execution backends.

A backend consumes :class:`~repro.exec.tasks.InjectionTask` units and yields
``(task, result)`` pairs as they complete — in task order for the serial
backend, in completion order for the process pool. Because every task
carries its own derived seed, the pair stream is order-independent: the
engine re-sorts by task index, so all backends produce identical campaigns.

``ProcessPoolBackend`` runs ``jobs`` worker processes. Each owns one pipe
to the parent and holds at most one task at a time. Every worker, a
replacement included, forks from the run's own :class:`ExecutionContext`,
so it starts with the snapshot providers (the golden runs) the parent
already built: a benchmark's golden is built once per run, in the parent,
whatever the job count.

Fault tolerance: each backend has one run loop, always under a
:class:`~repro.exec.resilience.FaultPolicy`. A task that raises, or kills
its worker process, is retried and finally *quarantined*: yielded as a
:class:`~repro.exec.resilience.TaskFailure` in place of a result, or, in
``strict`` mode, raised as a
:class:`~repro.exec.resilience.FaultToleranceError`. The one task timer
is the pool's watchdog: it kills the worker that has held a task for
``task_timeout_s``. Since a pool worker holds one task, a worker that
dies, or that the watchdog kills, costs exactly one attempt of the task
it held; only that worker is replaced and no other task is touched. A
backend built without a policy runs under
:data:`~repro.exec.resilience.FAIL_FAST`: no retries, and the first
failing task raises.
"""

from __future__ import annotations

import multiprocessing
import signal
import time
from collections import deque
from dataclasses import dataclass, field, replace
from multiprocessing.connection import Connection, wait
from typing import (
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

from repro.bugs.campaign import InjectionResult
from repro.bugs.snapshot import SnapshotProvider
from repro.exec.resilience import (
    FAIL_FAST,
    AttemptTracker,
    FaultPolicy,
    FaultToleranceError,
    TaskFailure,
    crash_failure,
    failure_from_exception,
    timeout_failure,
)
from repro.core.config import CoreConfig
from repro.core.cpu import RunResult
from repro.exec.tasks import InjectionTask, execute_task
from repro.isa.program import Program

#: A pluggable task runner: ``runner(task, context) -> result``. Must be a
#: module-level function so the process pool can ship it to workers by
#: reference. The default is :func:`run_injection_task`.
TaskRunner = Callable[[object, "ExecutionContext"], object]

#: What a backend yields per task: the result, or the structured account
#: of why the task was given up on.
TaskOutcome = Union[InjectionResult, TaskFailure]


def run_injection_task(
    task: InjectionTask, context: "ExecutionContext"
) -> InjectionResult:
    """The injection runner: ``task`` against the context's cached
    snapshot provider and its golden run."""
    return execute_task(
        task,
        context.programs[task.benchmark],
        context.golden(task.benchmark),
        context.config,
        snapshots=context.snapshots(task.benchmark),
    )


@dataclass
class ExecutionContext:
    """Everything a backend needs to run tasks: programs, config, goldens.

    ``runner`` makes the backends task-agnostic: every task is dispatched
    to it. The default, :func:`run_injection_task`, runs injection tasks
    from golden snapshots; the fuzzer passes
    :func:`repro.fuzz.engine.run_fuzz_task`.

    The context lazily builds one
    :class:`~repro.bugs.snapshot.SnapshotProvider` per benchmark, at
    :data:`~repro.bugs.snapshot.SNAPSHOT_INTERVAL`: an instrumented golden
    run that captures machine snapshots and the golden delta trace.
    Injections resume from the nearest snapshot instead of power-on and
    stop once they re-converge with the golden run. The provider's golden
    is the reference run. A campaign's manifest reads every golden before
    dispatch, so the parent builds them all, once, and pool workers fork
    with them. The cold run (:func:`~repro.exec.tasks.execute_task` with no
    provider) is the oracle these results are checked against.
    """

    programs: Dict[str, Program]
    config: Optional[CoreConfig] = None
    runner: TaskRunner = run_injection_task
    _snapshots: Dict[str, SnapshotProvider] = field(default_factory=dict)

    def golden(self, benchmark: str) -> RunResult:
        """The bug-free reference run for ``benchmark``: its provider's."""
        return self.snapshots(benchmark).golden

    def snapshots(self, benchmark: str) -> SnapshotProvider:
        """The (cached) snapshot provider for ``benchmark``."""
        if benchmark not in self._snapshots:
            self._snapshots[benchmark] = SnapshotProvider(
                self.programs[benchmark], config=self.config
            )
        return self._snapshots[benchmark]

    def execute(self, task: object) -> object:
        """Run one task through ``runner``."""
        return self.runner(task, self)


class Backend(Protocol):
    """Executes tasks and yields their results in any order."""

    def run(
        self, tasks: Sequence[InjectionTask], context: ExecutionContext
    ) -> Iterator[Tuple[InjectionTask, TaskOutcome]]:
        ...  # pragma: no cover


def _give_up(
    task: object, failure: TaskFailure, policy: FaultPolicy
) -> TaskFailure:
    """The quarantine record of a task out of attempts, or, in ``strict``
    mode, the :class:`FaultToleranceError` naming it."""
    if policy.strict:
        raise FaultToleranceError(
            f"task {task.key} failed after {failure.attempts} attempt(s) "
            f"[{failure.kind}]: {failure.message}"
        )
    return failure


class SerialBackend:
    """In-process execution, one task at a time, in task order.

    Task exceptions are retried, then quarantined or (``strict``) raised,
    as the policy says. A task that kills the process outright, or that
    runs past a wall-clock budget, cannot be stopped in-process: a policy
    with ``task_timeout_s`` is refused here and runs on
    :class:`ProcessPoolBackend`.
    """

    def __init__(self, policy: FaultPolicy = FAIL_FAST) -> None:
        if policy.task_timeout_s is not None:
            raise ValueError(
                "a task timeout needs a worker to kill: run it on "
                "ProcessPoolBackend"
            )
        self.policy = policy

    def run(
        self, tasks: Sequence[InjectionTask], context: ExecutionContext
    ) -> Iterator[Tuple[InjectionTask, TaskOutcome]]:
        tracker = AttemptTracker(self.policy)
        for task in tasks:
            yield task, self._run_one(task, context, tracker)

    def _run_one(
        self, task: object, context: ExecutionContext, tracker: AttemptTracker
    ) -> TaskOutcome:
        while True:
            attempts = tracker.record_attempt(task.key)
            try:
                return context.execute(task)
            except Exception as exc:
                if tracker.exhausted(task.key):
                    failure = failure_from_exception(exc, attempts)
                    return _give_up(task, failure, self.policy)


# -- process-pool workers -----------------------------------------------------


def _worker_main(conn: Connection, context: ExecutionContext) -> None:
    """A pool worker: run each task the parent sends through ``context``,
    the run's own (forked with the providers the parent built), and reply
    on ``conn``.

    A Ctrl-C reaches the whole process group, workers included; they
    ignore it, so the parent alone decides what it means (the CLIs unwind
    the run, which kills the workers). SIGTERM gets its default action
    back (a forked worker inherits the parent's handlers), so a worker can
    always be stopped. A task's exception goes back as a
    :class:`TaskFailure`; the parent charges the attempt.

    Between tasks the worker also watches its parent's sentinel and
    returns once the parent is gone: its pipe never reads EOF, since each
    worker holds the parent's ends of its own and earlier workers' pipes.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    parent = multiprocessing.parent_process().sentinel
    while True:
        if parent in wait([conn, parent]):
            return
        try:
            task = conn.recv()
        except EOFError:  # the parent closed its end
            return
        try:
            outcome = context.execute(task)
        except Exception as exc:
            outcome = failure_from_exception(exc, attempts=0)
        conn.send(outcome)


#: Parent-side verdicts on a busy worker that did not reply: it died, or it
#: held its task for the whole ``task_timeout_s``.
_LOST = object()
_HUNG = object()

#: The longest single wait of the watchdog, in seconds: ``wait`` overflows
#: past about 24 days, and a longer budget just takes several waits.
_MAX_WAIT_S = 3600.0


class _Worker:
    """One worker process, forked with the run's ``context``, the parent's
    end of its pipe, and the task it holds (None while idle)."""

    def __init__(self, context: ExecutionContext) -> None:
        self.conn, child_end = multiprocessing.Pipe()
        self.process = multiprocessing.Process(
            target=_worker_main, args=(child_end, context), daemon=True
        )
        self.process.start()
        child_end.close()  # so the worker's death reads as EOF here
        self.task: Optional[object] = None
        self.started = 0.0

    def take(self, queue: Deque[object]) -> None:
        """Hand the worker the next queued task, if any."""
        self.task = queue.popleft() if queue else None
        if self.task is None:
            return
        self.started = time.monotonic()
        try:
            self.conn.send(self.task)
        except OSError:
            pass  # already dead: the next wait reports the loss

    def receive(self) -> object:
        """The worker's reply, or :data:`_LOST` when it died without one."""
        try:
            if self.conn.poll():
                return self.conn.recv()
        except (EOFError, OSError):
            pass
        return _LOST

    def stop(self) -> Optional[int]:
        """Kill the worker (if it still runs), reap it and return its exit
        code."""
        self.process.kill()
        self.process.join()
        code = self.process.exitcode
        self.process.close()
        self.conn.close()
        return code


class ProcessPoolBackend:
    """Parallel execution on ``jobs`` worker processes, one task each.

    The parent waits on every busy worker's pipe and process sentinel at
    once. A replying worker gets its next task before the reply is yielded
    to the engine, so workers never idle while the engine writes the
    checkpoint. A worker that dies, or that the watchdog kills once it has
    held its task for ``policy.task_timeout_s``, is charged one attempt
    against the task it held and replaced; the other workers and their
    tasks are untouched. Workers fork from ``context`` at each run and die
    with it, so a pool holds no state between runs. Results are yielded in
    completion order; tasks and results are plain picklable dataclasses.
    However the run ends, by its last result or an exception (a stop),
    every worker is killed and reaped.
    """

    def __init__(self, jobs: int, policy: FaultPolicy = FAIL_FAST) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.policy = policy

    def run(
        self, tasks: Sequence[InjectionTask], context: ExecutionContext
    ) -> Iterator[Tuple[InjectionTask, TaskOutcome]]:
        policy = self.policy
        hang = policy.task_timeout_s
        tracker = AttemptTracker(policy)
        queue: Deque[object] = deque(tasks)
        workers: List[_Worker] = []
        try:
            for _ in range(min(self.jobs, len(queue))):
                workers.append(_Worker(context))
            for worker in workers:
                worker.take(queue)
            while True:
                busy = [w for w in workers if w.task is not None]
                if not busy:
                    return
                timeout = None
                if hang is not None:
                    oldest = min(w.started for w in busy)
                    left = oldest + hang - time.monotonic()
                    timeout = min(max(0.0, left), _MAX_WAIT_S)
                ready = set(
                    wait(
                        [w.conn for w in busy]
                        + [w.process.sentinel for w in busy],
                        timeout=timeout,
                    )
                )
                now = time.monotonic()
                for slot, worker in enumerate(workers):
                    task = worker.task
                    if task is None:
                        continue
                    if worker.conn in ready or worker.process.sentinel in ready:
                        outcome = worker.receive()
                    elif hang is not None and now - worker.started >= hang:
                        outcome = _HUNG
                    else:
                        continue
                    if outcome is _LOST or outcome is _HUNG:
                        replacement = _Worker(context)
                        code = worker.stop()
                        workers[slot] = worker = replacement
                        attempts = tracker.record_attempt(task.key)
                        outcome = (
                            timeout_failure(attempts, hang)
                            if outcome is _HUNG
                            else crash_failure(attempts, f"exit code {code}")
                        )
                    elif isinstance(outcome, TaskFailure):
                        outcome = replace(
                            outcome, attempts=tracker.record_attempt(task.key)
                        )
                    if isinstance(outcome, TaskFailure):
                        if tracker.exhausted(task.key):
                            outcome = _give_up(task, outcome, policy)
                        else:
                            queue.appendleft(task)  # retried at once
                            outcome = None
                    worker.take(queue)
                    if outcome is not None:
                        yield task, outcome
        finally:
            for worker in workers:
                worker.stop()


def make_backend(jobs: int, policy: FaultPolicy = FAIL_FAST) -> Backend:
    """A pool of ``jobs`` worker processes, or in-process serial execution
    for one job without a task timeout (results are identical either way).
    A timeout needs a worker to kill, so it gets a pool even at one job."""
    if jobs > 1 or policy.task_timeout_s is not None:
        return ProcessPoolBackend(jobs, policy=policy)
    return SerialBackend(policy=policy)
