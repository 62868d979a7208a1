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
  segfault); the pool is respawned and the task retried in a fresh slot.

A task is retried up to ``max_task_retries`` times; after that it is
*quarantined*: recorded as a :class:`TaskFailure` in the checkpoint (so
``--resume`` skips it instead of re-crashing on it) and excluded from
figure aggregation. ``strict`` turns quarantine and serial fallback into
hard failures for runs where partial results are unacceptable;
:data:`FAIL_FAST` (no retries, strict) is the policy a backend runs under
when none is given.

This module deliberately imports nothing from the rest of the package so
every layer (core, bugs, exec, fuzz) can depend on it without cycles.
"""

from __future__ import annotations

import math as _math
import random as _random
import traceback as _traceback
from dataclasses import dataclass, field
from typing import Dict, Optional

#: Maximum characters of traceback preserved in a failure record.
TRACEBACK_LIMIT = 2000

#: The three failure kinds a task can be quarantined with.
FAILURE_KINDS = ("exception", "timeout", "worker-crash")


class FaultToleranceError(RuntimeError):
    """Raised in ``strict`` mode instead of quarantining or degrading."""


def backoff_with_jitter(
    attempt: int,
    base_s: float,
    max_s: float,
    jitter: float = 0.5,
    rng: Optional[_random.Random] = None,
) -> float:
    """Capped exponential backoff with multiplicative jitter.

    ``attempt`` is 1-based: the first retry waits about ``base_s``, doubling
    per attempt up to ``max_s``. The jitter then *subtracts* up to
    ``jitter`` (a fraction in [0, 1]) of the delay, so the returned value
    lies in ``[delay * (1 - jitter), delay]`` — the cap is an upper bound
    either way. Jitter exists to break thundering herds: workers (or pool
    respawns) that all failed at the same instant must not all retry at the
    same instant too. ``rng`` pins the stream for tests; the default draws
    from the module-level PRNG, which is exactly the per-process
    decorrelation wanted in production.

    Overflow-safe for any attempt count: the exponent is clamped to the
    number of doublings that reaches ``max_s``, so ``attempt=10**9`` is
    exactly the cap rather than a float overflow. Nonpositive ``base_s``
    or ``max_s`` yields 0.0 (a delay is never negative).
    """
    if base_s <= 0.0 or max_s <= 0.0:
        return 0.0
    if base_s >= max_s:
        delay = max_s
    else:
        # Doublings beyond this provably clear the cap; clamping keeps
        # base_s * 2**exponent representable (ldexp never overflows here).
        cap_exponent = int(_math.log2(max_s / base_s)) + 1
        exponent = min(max(0, attempt - 1), cap_exponent)
        delay = min(max_s, _math.ldexp(base_s, exponent))
    if jitter <= 0.0:
        return delay
    draw = (rng if rng is not None else _random).random()
    return delay * (1.0 - jitter * draw)


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
            its pool. Covers per-worker golden/snapshot warm-up, which
            runs before the cooperative deadline can bite.
        max_task_retries: Retries after the first attempt before a task
            is quarantined (so a task runs at most ``1 + max_task_retries``
            times). Each retry gets a fresh pool slot.
        max_pool_respawns: Consecutive pool breakages *without a single
            completed task in between* tolerated before the backend
            degrades to in-process serial execution (or raises, when
            ``strict`` or ``fallback_serial=False``). Breakages that do
            complete tasks in between reset the counter, so a lone poison
            task never triggers degradation.
        backoff_base_s: Initial sleep before respawning a broken pool;
            doubles per consecutive breakage up to ``backoff_max_s``.
        backoff_max_s: Exponential-backoff ceiling.
        backoff_jitter: Fraction of each backoff delay randomly shaved off
            (see :func:`backoff_with_jitter`), so workers that crashed
            simultaneously don't thundering-herd their respawns. 0 restores
            the deterministic schedule.
        fallback_serial: Degrade to :class:`SerialBackend`-style in-process
            execution when the pool keeps breaking, instead of aborting.
        strict: Fail hard (raise :class:`FaultToleranceError`) the moment
            a task would be quarantined or the backend would degrade,
            instead of recording and continuing.
    """

    task_timeout_s: Optional[float] = None
    watchdog_grace_s: float = 60.0
    max_task_retries: int = 2
    max_pool_respawns: int = 3
    backoff_base_s: float = 0.5
    backoff_max_s: float = 30.0
    backoff_jitter: float = 0.5
    fallback_serial: bool = True
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
        if self.max_pool_respawns < 0:
            raise ValueError(
                f"max_pool_respawns must be >= 0, got {self.max_pool_respawns}"
            )
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError(
                f"backoff_jitter must be in [0, 1], got {self.backoff_jitter}"
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

    def backoff_s(
        self,
        consecutive_breakages: int,
        rng: Optional[_random.Random] = None,
    ) -> float:
        """Sleep before the Nth consecutive respawn (1-based), jittered."""
        return backoff_with_jitter(
            consecutive_breakages,
            self.backoff_base_s,
            self.backoff_max_s,
            jitter=self.backoff_jitter,
            rng=rng,
        )


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
