"""Tests for the throughput harness (repro.bench) and the stage profiler.

* ``BENCH_core.json`` is read in schema 2 only; any other schema is
  refused.
* A profiled core runs the very same ``step()`` as an unprofiled one, so
  its results are identical and only the attribution differs.
"""

import json

import pytest

from repro.bench import append_entry, main, read_trajectory
from repro.bugs.snapshot import make_detectors
from repro.core.cpu import (
    OoOCore,
    disable_stage_profiling,
    enable_stage_profiling,
)
from repro.workloads import WORKLOADS


def test_unknown_schema_is_refused(tmp_path):
    path = tmp_path / "bench.json"
    for schema in (1, 99):
        path.write_text(json.dumps({"schema": schema, "entries": []}))
        with pytest.raises(ValueError, match=f"unsupported schema {schema}"):
            append_entry(str(path), {"timestamp": "now"})
        with pytest.raises(ValueError, match=f"unsupported schema {schema}"):
            read_trajectory(str(path))


def test_bench_smoke_appends_schema2_entry(tmp_path):
    path = tmp_path / "bench.json"
    argv = [
        "--runs", "1", "--scale", "0.25", "--benchmarks", "sha",
        "--profile", "--output", str(path),
    ]
    assert main(argv) == 0
    (entry,) = read_trajectory(str(path))
    sha = entry["benchmarks"]["sha"]
    for key in (
        "cold_inj_per_s", "inj_per_s", "speedup", "cycles_skipped",
        "early_terminated", "provider_wall_s", "provider_snapshots",
    ):
        assert key in sha, key
    assert not any(key.startswith(("warm", "diff")) for key in sha)
    assert entry["aggregate"]["inj_per_s"] > 0
    assert entry["stage_profile"]["profiled_cycles"] > 0


def test_profiled_core_runs_the_same_step():
    prog = WORKLOADS["basicmath"](scale=0.4)
    plain = OoOCore(prog, observers=list(make_detectors())).run()
    profile = enable_stage_profiling()
    try:
        core = OoOCore(prog, observers=list(make_detectors()))
        profiled = core.run()
    finally:
        disable_stage_profiling()
    assert profiled == plain
    assert profile["cycles"] == profiled.cycles - core.ff_cycles_skipped
    assert core.ff_cycles_skipped > 0
    buckets = [
        "fetch", "rename", "issue", "execute", "commit", "flush",
        "recovery", "observer", "fast_forward",
    ]
    for bucket in buckets:
        assert profile[bucket] > 0, bucket
    # Cores built once profiling is off keep the plain methods.
    assert "step" not in vars(OoOCore(prog))
