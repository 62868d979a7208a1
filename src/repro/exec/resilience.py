"""Fault-tolerance policy and structured task failures.

The paper's evaluation rests on campaigns of tens of thousands of
injections; at that scale the harness itself must survive misbehaving
runs. This module defines the *policy* (:class:`FaultPolicy`) and the
*vocabulary* (:class:`TaskFailure`) the execution backends use to turn
worker exceptions, hung tasks and dead worker processes into structured,
checkpointable records instead of campaign aborts:

* **exception** — the task raised; the traceback is preserved (truncated).
* **timeout** — the task held its pool worker for its whole wall-clock
  budget, and the parent's watchdog killed that worker.
* **worker-crash** — the worker process died (OOM kill, ``os._exit``,
  segfault) while it held the task; only that worker is replaced.

A task is retried up to ``max_task_retries`` times; after that it is
*quarantined*: recorded as a :class:`TaskFailure` in the checkpoint (so
``--resume`` skips it instead of re-crashing on it) and excluded from
figure aggregation. ``strict`` turns quarantine into a hard failure for
runs where partial results are unacceptable; :data:`FAIL_FAST` (no
retries, strict) is the policy a backend runs under when none is given.

This module deliberately imports nothing from the rest of the package so
every layer (core, bugs, exec, fuzz) can depend on it without cycles.
"""

from __future__ import annotations

import math
import traceback as _traceback
from dataclasses import dataclass, field
from typing import Dict, Optional

#: Maximum characters of traceback preserved in a failure record.
TRACEBACK_LIMIT = 2000

#: The three failure kinds a task can be quarantined with.
FAILURE_KINDS = ("exception", "timeout", "worker-crash")


class FaultToleranceError(RuntimeError):
    """Raised in ``strict`` mode instead of quarantining a task."""


@dataclass(frozen=True)
class FaultPolicy:
    """How the execution layer responds to misbehaving tasks and workers.

    Attributes:
        task_timeout_s: Per-task wall-clock budget in seconds, a finite
            number > 0, or None for no limit. The pool's watchdog kills
            the worker that has held a task this long, so a policy with a
            budget needs a process to kill: it runs on
            :class:`~repro.exec.backends.ProcessPoolBackend`, at any job
            count.
        max_task_retries: Retries after the first attempt before a task
            is quarantined (so a task runs at most ``1 + max_task_retries``
            times). A task whose worker died retries on its replacement.
        strict: Fail hard (raise :class:`FaultToleranceError`) the moment
            a task would be quarantined, instead of recording it and
            continuing.
    """

    task_timeout_s: Optional[float] = None
    max_task_retries: int = 2
    strict: bool = False

    def __post_init__(self) -> None:
        timeout = self.task_timeout_s
        if timeout is not None and not 0 < timeout < math.inf:
            raise ValueError(
                f"task_timeout_s must be a finite number > 0, got {timeout}"
            )
        if self.max_task_retries < 0:
            raise ValueError(
                f"max_task_retries must be >= 0, got {self.max_task_retries}"
            )

    @property
    def max_attempts_per_task(self) -> int:
        return 1 + self.max_task_retries


#: The library default: no retries, and the first failing task raises
#: :class:`FaultToleranceError` naming the task, the failure kind and the
#: original ``Type: message``. The CLIs build their own policy from the
#: fault-tolerance flags.
FAIL_FAST = FaultPolicy(max_task_retries=0, strict=True)


@dataclass(frozen=True)
class TaskFailure:
    """The structured account of one quarantined task.

    Attributes:
        kind: One of :data:`FAILURE_KINDS`.
        attempts: How many times the task was tried before quarantine.
        message: One-line summary (exception repr, timeout budget, ...).
        traceback: Truncated worker-side traceback ('' when unavailable,
            e.g. for worker crashes and watchdog kills).
    """

    kind: str
    attempts: int
    message: str
    traceback: str = ""

    def to_record(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "attempts": self.attempts,
            "message": self.message,
            "traceback": self.traceback,
        }

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "TaskFailure":
        return cls(
            kind=record["kind"],
            attempts=record["attempts"],
            message=record["message"],
            traceback=record.get("traceback", ""),
        )


@dataclass(frozen=True)
class TaskFailureRecord:
    """A :class:`TaskFailure` plus the identity of the task it belongs to
    (what campaign results and reports carry around)."""

    key: str
    index: int
    benchmark: Optional[str]
    failure: TaskFailure


def failure_from_exception(exc: BaseException, attempts: int) -> TaskFailure:
    """The ``exception`` :class:`TaskFailure` of a task that raised
    ``exc``, with its (truncated) traceback."""
    tb = "".join(
        _traceback.format_exception(type(exc), exc, exc.__traceback__)
    )
    return TaskFailure(
        kind="exception",
        attempts=attempts,
        message=f"{type(exc).__name__}: {exc}",
        traceback=tb[-TRACEBACK_LIMIT:],
    )


def timeout_failure(attempts: int, budget_s: float) -> TaskFailure:
    """A watchdog timeout: the worker held the task for its whole
    budget and was killed."""
    return TaskFailure(
        kind="timeout",
        attempts=attempts,
        message=(
            f"task exceeded its {budget_s:g}s budget; the watchdog killed "
            "its worker"
        ),
    )


def crash_failure(attempts: int, detail: str = "") -> TaskFailure:
    """A worker-process death (OOM kill, os._exit, segfault, ...)."""
    message = "worker process died while the task was in flight"
    if detail:
        message += f" ({detail})"
    return TaskFailure(kind="worker-crash", attempts=attempts, message=message)


@dataclass
class AttemptTracker:
    """Per-task attempt bookkeeping shared by the backends."""

    policy: FaultPolicy
    counts: Dict[str, int] = field(default_factory=dict)

    def record_attempt(self, key: str) -> int:
        """Charge one attempt against ``key``; returns the new count."""
        self.counts[key] = self.counts.get(key, 0) + 1
        return self.counts[key]

    def attempts(self, key: str) -> int:
        return self.counts.get(key, 0)

    def exhausted(self, key: str) -> bool:
        return self.counts.get(key, 0) >= self.policy.max_attempts_per_task
