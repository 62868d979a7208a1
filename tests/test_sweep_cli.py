"""End-to-end tests for ``repro sweep`` and design-point checkpointing.

The sweep CLI drives one engine campaign per design point; these tests
pin its observable contract: deterministic stdout across worker counts,
per-cell checkpoints that verify and resume, no file written outside
``--checkpoint-dir``, and refusal to resume across design points.
"""

import json
import os

import pytest

from repro.core.config import CoreConfig, paper_rrs_config
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
        code = sweep_main(SMALL + ["--checkpoint-dir", ckpt])
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

    @pytest.mark.parametrize(
        "extra, written",
        [
            ([], []),
            (["--no-bench"], []),
            (["--checkpoint-dir", "cells"], ["cells"]),
        ],
        ids=["plain", "no-bench", "checkpoint-dir"],
    )
    def test_writes_nothing_outside_the_checkpoint_dir(
        self, extra, written, tmp_path, monkeypatch, capsys
    ):
        """The per-cell numbers go to stdout only: no file lands in the
        working directory. ``--no-bench`` is still accepted and changes
        nothing."""
        monkeypatch.chdir(tmp_path)
        assert sweep_main(SMALL + extra) == 0
        assert sorted(os.listdir(tmp_path)) == written
        assert "Design-space sweep" in capsys.readouterr().out

    def test_trajectory_flags_are_refused_or_hidden(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            sweep_main(SMALL + ["--bench-output", "bench.json"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --bench-output" in (
            capsys.readouterr().err
        )
        with pytest.raises(SystemExit):
            sweep_main(["--help"])
        usage = capsys.readouterr().out
        assert "--no-bench" not in usage and "--bench-output" not in usage

    def test_cell_checkpoints_verify(self, tmp_path):
        ckpt = str(tmp_path / "cells")
        sweep_main(SMALL + ["--checkpoint-dir", ckpt])
        path = cell_checkpoint_path(ckpt, 1, "fifo", "checkpoint")
        assert checkpoint_main(["verify", path]) == 0

    def test_resume_rerun_is_cheap_and_clean(self, tmp_path):
        ckpt = str(tmp_path / "cells")
        args = SMALL + ["--checkpoint-dir", ckpt]
        assert sweep_main(args) == 0
        # A cell stopped in set-up leaves its file empty; the
        # resume runs that cell afresh.
        emptied = cell_checkpoint_path(ckpt, 1, "stack", "rob-walk")
        open(emptied, "w").close()
        # Second pass resumes every completed cell.
        assert sweep_main(args + ["--resume"]) == 0
        assert checkpoint_main(["verify", emptied]) == 0

    def test_stdout_identical_across_jobs(self, tmp_path, capsys):
        assert sweep_main(SMALL + ["--jobs", "1"]) == 0
        serial_out = capsys.readouterr().out
        assert sweep_main(SMALL + ["--jobs", "2"]) == 0
        pooled_out = capsys.readouterr().out
        assert serial_out == pooled_out

    def test_bad_axis_values_rejected(self, tmp_path, capsys):
        assert sweep_main(["--disciplines", "lifo"]) == 2
        assert sweep_main(["--recoveries", "warp"]) == 2
        assert sweep_main(["--widths", "0"]) == 2
        assert sweep_main(["--resume"]) == 2  # no --checkpoint-dir
        assert sweep_main(["--benchmarks", "nonesuch"]) == 2
        assert sweep_main(["--runs", "-1"]) == 2
        capsys.readouterr()

    def test_resume_refuses_a_default_config_checkpoint(
        self, tmp_path, capsys
    ):
        """A ``repro campaign`` checkpoint carries no design point; planted
        as a width-1 cell's file, it must not resume into that cell. The
        refusal names the first differing key, not both design points."""
        from repro.cli import main as campaign_main

        cells = tmp_path / "cells"
        cells.mkdir()
        planted = cell_checkpoint_path(str(cells), 1, "fifo", "checkpoint")
        assert campaign_main([
            "--runs", "1", "--scale", "0.25", "--benchmarks", "crc32",
            "--checkpoint", planted, "--figures", "3", "--no-progress",
        ]) == 0
        capsys.readouterr()
        code = sweep_main([
            "--widths", "1", "--disciplines", "fifo",
            "--recoveries", "checkpoint", "--runs", "1", "--scale", "0.25",
            "--benchmarks", "crc32", "--checkpoint-dir", str(cells),
            "--resume",
        ])
        err = capsys.readouterr().err
        assert code == 2
        named = [line for line in err.splitlines() if "design_point" in line]
        assert len(named) == 1, err
        key = _first_differing_key(CoreConfig(), paper_rrs_config(width=1))
        assert f"design_point.{key}=" in named[0] and "{" not in named[0]

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

    def test_comparable_reads_an_absent_design_point_as_the_default(self):
        """What a resume compares: a default-geometry manifest and one
        stamped with ``CoreConfig()`` are the same run; a fuzz manifest
        has no design point and is compared as it is."""
        from repro.exec.checkpoint import comparable
        from repro.exec.durability import manifest_mismatch

        default = self._manifest(config=None).to_record()
        stamped = self._manifest(CoreConfig()).to_record()
        assert comparable(default) == dict(
            default, design_point=CoreConfig().to_dict()
        )
        assert comparable(stamped) is stamped
        assert manifest_mismatch(comparable(default), stamped) is None
        fuzz = {"type": "fuzz-manifest", "seed": 1}
        assert comparable(fuzz) is fuzz

    def test_design_point_joins_manifest_identity(self):
        default = self._manifest(config=None).to_record()
        pointed = self._manifest(paper_rrs_config(width=2)).to_record()
        other = self._manifest(paper_rrs_config(width=4)).to_record()
        assert manifest_identity(default) != manifest_identity(pointed)
        assert manifest_identity(pointed) != manifest_identity(other)


def _first_differing_key(a, b):
    a, b = a.to_dict(), b.to_dict()
    return min(key for key in a if a[key] != b[key])


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
        other = paper_rrs_config(width=2)
        key = _first_differing_key(config, other)
        have, want = config.to_dict()[key], other.to_dict()[key]
        with pytest.raises(CheckpointError) as refusal:
            run_engine(
                programs, runs_per_model=1, seed=9, config=other,
                checkpoint_path=path, resume=True,
            )
        assert (
            f"design_point.{key}={have!r} does not match this run's "
            f"design_point.{key}={want!r}"
        ) in str(refusal.value)

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

    def test_resume_reads_absent_design_point_as_default(
        self, tmp_path, programs
    ):
        """A file stamped with the default geometry resumes under a
        ``config=None`` run: both mean ``CoreConfig()``."""
        path = str(tmp_path / "cell.jsonl")
        first = run_engine(
            programs, runs_per_model=1, seed=9, config=CoreConfig(),
            checkpoint_path=path,
        )
        resumed = run_engine(
            programs, runs_per_model=1, seed=9,
            checkpoint_path=path, resume=True,
        )
        assert resumed.results == first.results
