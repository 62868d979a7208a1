"""Fault-tolerance policy and structured task failures.

The paper's evaluation rests on campaigns of tens of thousands of
injections; at that scale the harness itself must survive misbehaving
runs. This module defines the *policy* (:class:`FaultPolicy`) and the
*vocabulary* (:class:`TaskFailure`) the execution backends use to turn
worker exceptions, hung tasks and dead worker processes into structured,
checkpointable records instead of campaign aborts:

* **exception** — the task raised; the traceback is preserved (truncated).
* **timeout** — the task exceeded its wall-clock budget, either
  cooperatively (the core checks its deadline every ~1024 cycles) or via
  the parent-side watchdog for tasks that stop responding entirely.
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
        task_timeout_s: Per-task wall-clock budget in seconds. Enforced
            cooperatively inside the simulator (deadline checked every
            ~1024 cycles) and, for tasks that stop responding entirely,
            by the parent-side watchdog at ``task_timeout_s +
            watchdog_grace_s``. None disables both.
        watchdog_grace_s: Extra wall-clock slack the parent grants beyond
            ``task_timeout_s`` before declaring a task hung and killing
            its worker. Covers per-worker golden/snapshot warm-up, which
            runs before the cooperative deadline can bite.
        max_task_retries: Retries after the first attempt before a task
            is quarantined (so a task runs at most ``1 + max_task_retries``
            times). A task whose worker died retries on its replacement.
        strict: Fail hard (raise :class:`FaultToleranceError`) the moment
            a task would be quarantined, instead of recording it and
            continuing.
    """

    task_timeout_s: Optional[float] = None
    watchdog_grace_s: float = 60.0
    max_task_retries: int = 2
    strict: bool = False

    def __post_init__(self) -> None:
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ValueError(
                f"task_timeout_s must be > 0, got {self.task_timeout_s}"
            )
        if self.max_task_retries < 0:
            raise ValueError(
                f"max_task_retries must be >= 0, got {self.max_task_retries}"
            )

    @property
    def max_attempts_per_task(self) -> int:
        return 1 + self.max_task_retries

    @property
    def hang_timeout_s(self) -> Optional[float]:
        """Parent-side watchdog deadline, or None when timeouts are off."""
        if self.task_timeout_s is None:
            return None
        return self.task_timeout_s + self.watchdog_grace_s


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
    """Build a :class:`TaskFailure` from a raised exception.

    The kind is ``timeout`` for the cooperative deadline (detected by the
    exception's class *name*, so a pickled-and-reraised worker exception
    classifies identically), ``exception`` otherwise.
    """
    kind = (
        "timeout"
        if type(exc).__name__ == "DeadlineExceeded"
        else "exception"
    )
    tb = "".join(
        _traceback.format_exception(type(exc), exc, exc.__traceback__)
    )
    return TaskFailure(
        kind=kind,
        attempts=attempts,
        message=f"{type(exc).__name__}: {exc}",
        traceback=tb[-TRACEBACK_LIMIT:],
    )


def timeout_failure(attempts: int, budget_s: float) -> TaskFailure:
    """A watchdog (parent-side) timeout: the worker never answered."""
    return TaskFailure(
        kind="timeout",
        attempts=attempts,
        message=(
            f"task exceeded the {budget_s:.1f}s watchdog budget without "
            "responding; its worker was killed"
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
