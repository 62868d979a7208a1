"""Run one benchmark iteration: one public CLI call, timed from inside.

Usage (one process per iteration, started by ``run.py``)::

    python3 perfbench/iteration.py SPEC.json

``SPEC.json`` holds ``entry`` (``campaign``, ``sweep`` or ``fuzz``),
``argv`` for that entry point, ``trace`` (bool), ``iteration`` (an id for
the span file), ``spans`` (path to append spans to, or null) and
``result`` (where to write the record). The process's current directory
is the iteration's work directory, so every file the CLI writes lands
there. The record holds the CLI's return code, ``wall_s`` (entry-point
call to return), ``setup_s`` (entry-point call to the first dispatched
task), ``probe_s`` (the host speed probe around the call), the process's
peak RSS and, when tracing, the raw layer counters.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from typing import Callable, Dict, List

from layers import Instruments


def entry_point(name: str) -> Callable[[List[str]], int]:
    """The public CLI function behind a workload entry name."""
    if name == "campaign":
        from repro.cli import main

        return main
    if name == "sweep":
        from repro.sweep import sweep_main

        return sweep_main
    if name == "fuzz":
        from repro.fuzz.cli import fuzz_main

        return fuzz_main
    raise ValueError(f"unknown entry point {name!r}")


def preload() -> None:
    """Import every module an entry point loads lazily, so neither the
    import nor a bytecode compile lands inside the timed call."""
    import repro.analysis.export  # noqa: F401
    import repro.bugs.snapshot  # noqa: F401
    import repro.exec.engine  # noqa: F401
    import repro.exec.progress  # noqa: F401
    import repro.fuzz.engine  # noqa: F401


def host_probe_s(rounds: int = 1_200_000) -> float:
    """Seconds a fixed pure-Python loop takes: the host's current speed.

    The loop runs no program code and allocates no containers, so only
    the host (clock, co-tenants on the core) moves its time, by 20-40%
    over minutes on a shared 2-vCPU VM. It takes about 0.17 s there.
    """
    table: Dict[int, int] = {}
    items = list(range(256))
    start = time.perf_counter()
    for i in range(rounds):
        value = items[i & 255]
        key = (value ^ i) & 1023
        table[key] = table.get(key, 0) + value
    return time.perf_counter() - start


def run_iteration(entry: str, argv: List[str], trace: bool = False) -> Dict:
    """Call one CLI entry point in this process and time it.

    Returns the iteration record (see the module docstring) together
    with the :class:`~layers.Instruments` used, under ``"instruments"``.
    """
    main = entry_point(entry)
    preload()
    before = host_probe_s()
    with Instruments(trace=trace) as instruments:
        started = time.perf_counter_ns()
        rc = main(list(argv))
        ended = time.perf_counter_ns()
    first = instruments.first_task_ns
    return {
        "rc": rc,
        "probe_s": (before + host_probe_s()) / 2,
        "wall_s": (ended - started) / 1e9,
        "setup_s": ((first if first is not None else ended) - started) / 1e9,
        "totals": dict(instruments.totals),
        "stage_ns": dict(instruments.stage_ns),
        "task_ms": instruments.task_ms,
        "instruments": instruments,
    }


def main(spec_path: str) -> int:
    with open(spec_path) as handle:
        spec = json.load(handle)
    import repro

    expected = os.path.realpath(spec["src"])
    if not os.path.realpath(repro.__file__).startswith(expected + os.sep):
        print(
            f"repro imported from {repro.__file__}, not from {expected}",
            file=sys.stderr,
        )
        return 2
    record = run_iteration(spec["entry"], spec["argv"], spec["trace"])
    instruments = record.pop("instruments")
    if spec.get("spans"):
        instruments.write_spans(spec["spans"], spec["iteration"])
    # Linux reports ru_maxrss in KiB.
    record["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    with open(spec["result"], "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1]))
