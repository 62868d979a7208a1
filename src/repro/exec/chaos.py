"""Fault hooks for the execution layer: sabotage a campaign on purpose.

The paper's campaigns inject bugs into the simulated core; these hooks
inject faults into the *execution layer* that runs those campaigns, so the
recovery machinery (retry, quarantine, watchdog, worker replacement,
torn-tail repair) is exercised against real misbehavior instead of mocks.

:func:`chaos_runner` is a drop-in :data:`~repro.exec.backends.TaskRunner`
that runs :func:`~repro.exec.backends.run_injection_task`, except for tasks
whose keys appear in the ``REPRO_CHAOS_*`` environment variables, which it
sabotages instead.
Environment variables — not closures — carry the sabotage plan because pool
workers and child processes are separate processes: they inherit the
parent's environment but not its objects, and the runner itself is shipped
to workers by module reference.

Behaviors (each variable holds comma-separated task keys):

- ``REPRO_CHAOS_EXIT``: ``os._exit`` immediately — an unconditional hard
  worker crash (kills the current process, whoever it is).
- ``REPRO_CHAOS_RAISE``: raise :class:`ChaosError` (a deterministic
  "poison" task that fails every attempt).
- ``REPRO_CHAOS_HANG``: sleep for ``REPRO_CHAOS_HANG_S`` seconds (default
  3600) — a non-cooperative hang only the parent watchdog can clear.
- ``REPRO_CHAOS_TORN_APPEND`` (honored by
  :class:`~repro.exec.durability.SealedLog` itself, one task key):
  emit half of that task's checkpoint line and hard-exit — a deterministic
  SIGKILL-mid-append that leaves a torn tail (the writer's lock dies with
  it).

The scenarios that drive these hooks are tier-1 tests:
``tests/test_resilience.py`` (worker kill, poison, hang, a pool whose
every task kills its worker, no-op resume, fail-fast) and
``tests/test_chaos.py`` (torn append, mid-run kill).
"""

from __future__ import annotations

import os
import time
from typing import Dict, Iterable, Optional, Set

from repro.exec.backends import ExecutionContext, run_injection_task
from repro.exec.durability import ENV_TORN_APPEND

ENV_EXIT = "REPRO_CHAOS_EXIT"
ENV_RAISE = "REPRO_CHAOS_RAISE"
ENV_HANG = "REPRO_CHAOS_HANG"
ENV_HANG_S = "REPRO_CHAOS_HANG_S"

#: All plan-carrying variables, for scrubbing between scenarios.
ALL_ENV_VARS = (
    ENV_EXIT,
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
    raise_keys: Iterable[str] = (),
    hang_keys: Iterable[str] = (),
    hang_s: Optional[float] = None,
) -> Dict[str, str]:
    """Build the environment-variable plan for a chaos scenario.

    Returns only the variables that are set; callers should clear
    :data:`ALL_ENV_VARS` first so plans don't leak between scenarios.
    """
    env: Dict[str, str] = {}
    if exit_keys:
        env[ENV_EXIT] = ",".join(exit_keys)
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


def _maybe_sabotage(key: str) -> None:
    if key in _keys(ENV_EXIT):
        os._exit(EXIT_STATUS)
    if key in _keys(ENV_RAISE):
        raise ChaosError(f"chaos: deterministic failure for task {key}")
    if key in _keys(ENV_HANG):
        time.sleep(float(os.environ.get(ENV_HANG_S, "3600")))


def chaos_runner(task: object, context: ExecutionContext) -> object:
    """The sabotage-aware task runner (see module docstring):
    :func:`~repro.exec.backends.run_injection_task`, after the sabotage
    check for ``task``'s key."""
    _maybe_sabotage(task.key)
    return run_injection_task(task, context)
