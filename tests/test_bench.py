"""Tests for the throughput harness (repro.bench) and the stage profiler.

* ``BENCH_core.json`` schema 2 still reads schema-1 trajectories: their
  differential columns take the schema-2 names and the warm-only columns
  survive under ``schema1_warm``.
* A profiled core runs the very same ``step()`` as an unprofiled one, so
  its results are identical and only the attribution differs.
"""

import json

import pytest

from repro.bench import append_entry, main, read_trajectory, upgrade_entry
from repro.bugs.snapshot import make_detectors
from repro.core.cpu import (
    OoOCore,
    disable_stage_profiling,
    enable_stage_profiling,
)
from repro.workloads import WORKLOADS

_V1_COLUMNS = {
    "golden_cycles": 575,
    "injections": 24,
    "cold_wall_s": 1.2,
    "cold_inj_per_s": 20.0,
    "provider_wall_s": 0.1,
    "provider_snapshots": 20,
    "warm_wall_s": 0.8,
    "warm_inj_per_s": 30.0,
    "speedup": 1.5,
    "warm_cycles_skipped": 9000,
    "diff_provider_wall_s": 0.11,
    "diff_wall_s": 0.6,
    "diff_inj_per_s": 40.0,
    "diff_speedup": 2.0,
    "diff_early_terminated": 7,
}

V1_ENTRY = {
    "timestamp": "2026-08-08T18:51:14Z",
    "differential": True,
    "benchmarks": {"sha": dict(_V1_COLUMNS)},
    "aggregate": {
        "injections": 24,
        "cold_wall_s": 1.2,
        "cold_inj_per_s": 20.0,
        "warm_wall_s": 0.8,
        "warm_inj_per_s": 30.0,
        "speedup": 1.5,
        "diff_wall_s": 0.6,
        "diff_inj_per_s": 40.0,
        "diff_speedup": 2.0,
    },
}

SWEEP_ENTRY = {
    "timestamp": "2026-08-09T10:00:00Z",
    "kind": "sweep-cell",
    "benchmarks": ["crc32"],
    "cell": {"width": 4, "wall_s": 1.0},
}


def test_schema1_entry_reads_in_schema2_shape():
    entry = upgrade_entry(V1_ENTRY)
    sha = entry["benchmarks"]["sha"]
    assert sha == {
        "golden_cycles": 575,
        "injections": 24,
        "cold_wall_s": 1.2,
        "cold_inj_per_s": 20.0,
        "provider_wall_s": 0.11,
        "wall_s": 0.6,
        "inj_per_s": 40.0,
        "speedup": 2.0,
        "early_terminated": 7,
        "schema1_warm": {
            "warm_wall_s": 0.8,
            "warm_inj_per_s": 30.0,
            "speedup": 1.5,
            "warm_cycles_skipped": 9000,
            "provider_wall_s": 0.1,
            "provider_snapshots": 20,
        },
    }
    assert entry["aggregate"]["inj_per_s"] == 40.0
    assert entry["aggregate"]["schema1_warm"]["speedup"] == 1.5
    assert "differential" not in entry
    assert entry["migrated_from_schema"] == 1


def test_append_rewrites_schema1_file_as_schema2(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text(
        json.dumps({"schema": 1, "entries": [V1_ENTRY, SWEEP_ENTRY]})
    )
    assert read_trajectory(str(path))[0] == upgrade_entry(V1_ENTRY)
    append_entry(str(path), {"timestamp": "now"})
    data = json.loads(path.read_text())
    assert data["schema"] == 2
    assert data["entries"] == [
        upgrade_entry(V1_ENTRY),
        dict(SWEEP_ENTRY, migrated_from_schema=1),
        {"timestamp": "now"},
    ]
    assert read_trajectory(str(path)) == data["entries"]


def test_unknown_schema_is_refused(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"schema": 99, "entries": []}))
    with pytest.raises(ValueError, match="unsupported schema 99"):
        append_entry(str(path), {"timestamp": "now"})


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
