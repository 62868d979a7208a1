"""End-to-end tests for ``repro sweep`` and design-point checkpointing.

The sweep CLI drives one engine campaign per design point; these tests
pin its observable contract: deterministic stdout across worker counts,
per-cell checkpoints that verify and resume, bench-trajectory entries,
and refusal to resume or merge across design points.
"""

import json
import os

import pytest

from repro.core.config import paper_rrs_config
from repro.exec.checkpoint import CheckpointError, manifest_for, Manifest
from repro.exec.cli import checkpoint_main
from repro.exec.durability import manifest_identity
from repro.exec.engine import run_engine
from repro.sweep import cell_checkpoint_path, format_sweep_table, sweep_main
from repro.workloads import WORKLOADS

SMALL = [
    "--widths", "1",
    "--disciplines", "fifo,stack",
    "--recoveries", "checkpoint,rob-walk",
    "--runs", "1",
    "--scale", "0.25",
    "--benchmarks", "crc32",
]


class TestSweepCli:
    def test_small_matrix_runs_clean(self, tmp_path, capsys):
        ckpt = str(tmp_path / "cells")
        bench = str(tmp_path / "bench.json")
        code = sweep_main(
            SMALL + ["--checkpoint-dir", ckpt, "--bench-output", bench]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert (
            "Design-space sweep -- per-cell detection coverage and latency"
            in out
        )
        assert "Table II" in out or "overhead" in out.lower()
        # One checkpoint per cell, canonical names.
        for discipline in ("fifo", "stack"):
            for recovery in ("checkpoint", "rob-walk"):
                path = cell_checkpoint_path(ckpt, 1, discipline, recovery)
                assert os.path.exists(path)
        # One bench entry per cell.
        with open(bench) as fh:
            trajectory = json.load(fh)
        cells = [
            e for e in trajectory["entries"] if e.get("kind") == "sweep-cell"
        ]
        assert len(cells) == 4
        assert all("design_point" in e for e in cells)
        assert {e["cell"]["discipline"] for e in cells} == {"fifo", "stack"}

    def test_cell_checkpoints_verify(self, tmp_path):
        ckpt = str(tmp_path / "cells")
        sweep_main(SMALL + ["--checkpoint-dir", ckpt, "--no-bench"])
        path = cell_checkpoint_path(ckpt, 1, "fifo", "checkpoint")
        assert checkpoint_main(["verify", path]) == 0

    def test_resume_rerun_is_cheap_and_clean(self, tmp_path):
        ckpt = str(tmp_path / "cells")
        args = SMALL + ["--checkpoint-dir", ckpt, "--no-bench"]
        assert sweep_main(args) == 0
        # Second pass resumes every completed cell.
        assert sweep_main(args + ["--resume"]) == 0

    def test_stdout_identical_across_jobs(self, tmp_path, capsys):
        assert sweep_main(SMALL + ["--no-bench", "--jobs", "1"]) == 0
        serial_out = capsys.readouterr().out
        assert sweep_main(SMALL + ["--no-bench", "--jobs", "2"]) == 0
        pooled_out = capsys.readouterr().out
        assert serial_out == pooled_out

    def test_bad_axis_values_rejected(self, capsys):
        assert sweep_main(["--disciplines", "lifo"]) == 2
        assert sweep_main(["--recoveries", "warp"]) == 2
        assert sweep_main(["--widths", "0"]) == 2
        assert sweep_main(["--resume"]) == 2  # no --checkpoint-dir
        assert sweep_main(["--benchmarks", "nonesuch"]) == 2
        capsys.readouterr()

    def test_negative_snapshot_interval_rejected(self, capsys):
        """Checked at the CLI edge, as ``repro campaign`` does, instead of
        quietly running every cell cold."""
        args = SMALL + ["--no-bench", "--snapshot-interval", "-1"]
        assert sweep_main(args) == 2
        err = capsys.readouterr().err
        assert "--snapshot-interval must be >= 0, got -1" in err

    def test_cell_checkpoint_path_naming(self):
        assert cell_checkpoint_path("d", 4, "stack", "rob-walk") == (
            os.path.join("d", "sweep-w4-stack-rob-walk.jsonl")
        )

    def test_format_sweep_table_shape(self):
        rows = [{
            "width": 2, "discipline": "fifo", "recovery": "checkpoint",
            "injections": 6, "activated": 6, "quarantined": 0,
            "idld": 1.0, "bv": 0.5, "end_of_test": 0.5,
            "idld_latency_mean": 3.5, "outcomes": {"Benign": 6},
            "wall_s": 0.1,
        }]
        lines = format_sweep_table(rows)
        assert len(lines) == 3  # title + header + one cell
        assert "100.0%" in lines[2] and "Benign:6" in lines[2]


class TestDesignPointManifest:
    def _manifest(self, config=None):
        return manifest_for(
            seed=5, runs_per_model=2, models=[], benchmarks=["crc32"],
            max_attempts=6, goldens={}, config=config,
        )

    def test_round_trips_through_record(self):
        config = paper_rrs_config(2, "stack", "rob-walk")
        manifest = self._manifest(config)
        record = manifest.to_record()
        assert record["design_point"] == config.to_dict()
        clone = Manifest.from_record(json.loads(json.dumps(record)))
        assert clone.design_point == config.to_dict()

    def test_default_config_record_has_no_design_point(self):
        """Byte-compatibility: default-campaign manifests must look
        exactly like pre-refactor files."""
        record = self._manifest(config=None).to_record()
        assert "design_point" not in record

    def test_old_record_loads_as_none(self):
        record = self._manifest(config=None).to_record()
        assert Manifest.from_record(record).design_point is None

    def test_design_point_joins_manifest_identity(self):
        default = self._manifest(config=None).to_record()
        pointed = self._manifest(paper_rrs_config(width=2)).to_record()
        other = self._manifest(paper_rrs_config(width=4)).to_record()
        assert manifest_identity(default) != manifest_identity(pointed)
        assert manifest_identity(pointed) != manifest_identity(other)


class TestDesignPointRefusals:
    @pytest.fixture()
    def programs(self):
        return {"crc32": WORKLOADS["crc32"](scale=0.25)}

    def test_resume_refuses_mismatched_design_point(
        self, tmp_path, programs
    ):
        path = str(tmp_path / "cell.jsonl")
        config = paper_rrs_config(width=1)
        run_engine(
            programs, runs_per_model=1, seed=9, config=config,
            checkpoint_path=path,
        )
        with pytest.raises(CheckpointError, match="design_point"):
            run_engine(
                programs, runs_per_model=1, seed=9,
                config=paper_rrs_config(width=2),
                checkpoint_path=path, resume=True,
            )

    def test_resume_accepts_matching_design_point(self, tmp_path, programs):
        path = str(tmp_path / "cell.jsonl")
        config = paper_rrs_config(width=1)
        first = run_engine(
            programs, runs_per_model=1, seed=9, config=config,
            checkpoint_path=path,
        )
        resumed = run_engine(
            programs, runs_per_model=1, seed=9, config=config,
            checkpoint_path=path, resume=True,
        )
        assert resumed.results == first.results

    def test_merge_refuses_mixed_design_points(
        self, tmp_path, programs, capsys
    ):
        a = str(tmp_path / "a.jsonl")
        b = str(tmp_path / "b.jsonl")
        run_engine(
            programs, runs_per_model=1, seed=9,
            config=paper_rrs_config(width=1), checkpoint_path=a,
        )
        run_engine(
            programs, runs_per_model=1, seed=9,
            config=paper_rrs_config(width=2), checkpoint_path=b,
        )
        merged = str(tmp_path / "merged.jsonl")
        code = checkpoint_main(["merge", a, b, "--output", merged])
        err = capsys.readouterr().err
        assert code == 2
        assert "must not be merged" in err
