"""Tests of the benchmark harness itself (not part of the tier-1 suite).

Run from the repository root with::

    PYTHONPATH=src python -m pytest perfbench -q

Every workload runs at ``--size smoke`` (iterations of a fraction of a
second), untraced and traced.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
from iteration import run_iteration
from workloads import WORKLOADS

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, out: Path, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(run.HERE / "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "0",
            "--size", "smoke", "--trace", str(trace), "--out", str(out),
        ],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    suffix = "-trace" if trace else ""
    result = json.loads((out / f"{workload}-seed3{suffix}.json").read_text())
    return {"line": line, "result": result}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("results")
    return {
        (name, trace): _run(name, out, trace)
        for name in WORKLOADS
        for trace in (0, 1)
    }


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_listed_metric_is_emitted(runs, name):
    for trace, listed in ((0, "end_to_end"), (1, "per_layer")):
        line = runs[name, trace]["line"]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] >= 1
        wanted = {m["name"]: m["unit"] for m in BENCH[listed]}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == wanted
    for value in runs[name, 0]["line"]["metrics"].values():
        assert value["value"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_digests_equal_untraced(runs, name):
    untraced = runs[name, 0]["result"]
    traced = runs[name, 1]["result"]
    assert traced["digest_mismatches"] == 0
    assert [r["digest"] for r in traced["traced_iterations"]] == [
        r["digest"] for r in traced["iterations"]
    ]
    # Same seed, same inputs: the untraced run agrees too.
    assert traced["digest"] == untraced["digest"]


def test_traced_run_restores_the_originals(tmp_path, monkeypatch):
    import repro.core.cpu as cpu
    import repro.exec.backends as backends
    import repro.exec.tasks as tasks
    import repro.workloads as programs

    original = cpu.OoOCore.run_cycles
    execute = backends.ExecutionContext.execute
    task_bindings = (tasks.execute_task, backends.execute_task)
    builders = dict(programs.WORKLOADS)
    monkeypatch.chdir(tmp_path)
    record = run_iteration(
        "campaign", WORKLOADS["campaign"].argv("smoke", 1), trace=True
    )
    assert record["rc"] == 0
    assert record["totals"]["core.run_cycles.calls"] > 0
    assert cpu.OoOCore.run_cycles is original
    assert backends.ExecutionContext.execute is execute
    assert (tasks.execute_task, backends.execute_task) == task_bindings
    assert programs.WORKLOADS == builders
    assert cpu.STAGE_PROFILE is None


def test_planted_mismatch_counts_as_failed(tmp_path, monkeypatch):
    from repro.exec.durability import seal_record

    real = run.run_iteration

    def planted(*args, **kwargs):
        record = real(*args, **kwargs)
        path = Path(record["checkpoints"][0])
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            entry = json.loads(line)
            if entry.get("type") == "result" and entry["index"] == 0:
                entry.pop("crc")
                entry["result"]["final_cycle"] += 1
                lines[i] = json.dumps(seal_record(entry), sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        return record

    monkeypatch.setattr(run, "run_iteration", planted)
    result = run.run_workload(
        WORKLOADS["campaign"], "smoke", 1, 0.0, False, tmp_path,
        tmp_path / "scratch",
    )
    assert result["cold_mismatches"] == result["cold_checked"] > 0
    assert result["failed"] > 0 and not result["correct"]


def _write_set(directory: Path, scale: float) -> list:
    directory.mkdir()
    paths = []
    for i in range(10):
        metrics = {
            "wall_s": 4.0 * scale * (1 + 0.004 * (i % 5)),
            "setup_s": 0.8 * (1 + 0.004 * (i % 3)),
            "tasks_per_s": 40.0 / scale * (1 - 0.004 * (i % 4)),
            "sim_cycles_per_s": 78000.0 / scale * (1 - 0.003 * (i % 4)),
            "peak_rss_mb": 42.0 + 0.01 * i,
        }
        result = {
            "workload": "campaign",
            "end_to_end": metrics,
            "failed": 0,
            "attempted": 480,
            "digests": {str(i * 1000): f"digest-{i}"},
        }
        path = directory / f"campaign-seed{i}.json"
        path.write_text(json.dumps(result))
        paths.append(str(path))
    return paths


def test_compare_flags_a_slowdown_and_passes_identical_sets(tmp_path, capsys):
    a = _write_set(tmp_path / "a", 1.0)
    same = _write_set(tmp_path / "same", 1.0)
    # Past every time bound in BENCHMARK.json (the widest is 25%).
    slow = _write_set(tmp_path / "slow", 1.4)
    assert compare.main(a + ["--"] + same) == 0
    capsys.readouterr()
    assert compare.main(a + ["--"] + slow) == 1
    verdicts = {
        words[1]: words[-1]
        for words in map(str.split, capsys.readouterr().out.splitlines())
        if words[0] == "campaign"
    }
    assert verdicts["wall_s"] == "regressed"
    assert verdicts["tasks_per_s"] == "regressed"
    assert verdicts["sim_cycles_per_s"] == "regressed"
    assert verdicts["setup_s"] == "ok"
    assert verdicts["peak_rss_mb"] == "ok"
