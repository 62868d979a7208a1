"""Tests for the idld-campaign CLI and the run flags it shares."""

import time

import pytest

from repro.cli import main


def test_table2_only(capsys):
    assert main(["--figures", "table2"]) == 0
    out = capsys.readouterr().out
    assert "Table II" in out and "IDLD" in out


def test_tiny_campaign(capsys):
    code = main([
        "--runs", "2",
        "--benchmarks", "sha",
        "--figures", "3,9",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Figure 3" in out
    assert "end-of-test" in out
    assert "sha" in out


def test_unknown_benchmark_rejected(capsys):
    assert main(["--benchmarks", "nosuch", "--figures", "3"]) == 2
    assert "unknown benchmarks" in capsys.readouterr().err


def test_figure_subset(capsys):
    main(["--runs", "2", "--benchmarks", "sha", "--figures", "4"])
    out = capsys.readouterr().out
    assert "Figure 4" in out and "Figure 3" not in out


def test_unknown_figure_rejected(capsys):
    assert main(["--figures", "3,nosuch"]) == 2
    err = capsys.readouterr().err
    assert "unknown figures: nosuch" in err
    assert "latency" in err  # the known-id list names every supported id


def test_latency_documented_in_help(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "latency" in capsys.readouterr().out


def test_checkpoint_and_resume_mutually_exclusive(capsys):
    assert main(["--checkpoint", "a.jsonl", "--resume", "b.jsonl"]) == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_resume_missing_file_clean_error(capsys):
    code = main([
        "--resume", "/nonexistent/run.jsonl",
        "--runs", "1", "--benchmarks", "sha", "--figures", "3",
    ])
    assert code == 2
    assert "checkpoint error" in capsys.readouterr().err


def test_from_checkpoint_missing_file_clean_error(capsys):
    assert main(["--from-checkpoint", "/nonexistent/run.jsonl"]) == 2
    assert "cannot load checkpoint" in capsys.readouterr().err


def test_invalid_jobs_rejected(capsys):
    assert main(["--jobs", "0", "--figures", "3"]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_parallel_campaign_with_checkpoint(tmp_path, capsys):
    path = str(tmp_path / "run.jsonl")
    code = main([
        "--runs", "2",
        "--benchmarks", "sha",
        "--figures", "3",
        "--jobs", "2",
        "--checkpoint", path,
        "--no-progress",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "jobs=2" in out and "never activated" in out

    # Report straight from the checkpoint, no re-execution.
    assert main(["--from-checkpoint", path, "--figures", "3"]) == 0
    out = capsys.readouterr().out
    assert "Figure 3" in out and "checkpoint: 6 injections" in out


# -- the shared run flags -----------------------------------------------------

FAULT_DEFAULTS = {
    "task_timeout": None,
    "max_task_retries": 2,
    "strict": False,
    "fallback_serial": True,
    "checkpoint_fsync": False,
}


def test_run_flag_defaults_are_pinned():
    """campaign, sweep, fuzz, bench and work declare their shared flags
    through one set of helpers; a helper change must not move any
    command's parsed defaults."""
    from repro.bench import _parse_args as bench_args
    from repro.cli import _parse_args as campaign_args
    from repro.exec.fabric.cli import _parse_work_args
    from repro.fuzz.cli import _parse_args as fuzz_args
    from repro.sweep import _parse_args as sweep_args

    assert vars(campaign_args([])) == dict(
        FAULT_DEFAULTS,
        runs=20, scale=1.0, benchmarks="all", seed=1, jobs=1,
        snapshot_interval=250, batch_size=8, figures="3,4,5,8,9,10,table2",
        checkpoint=None, resume=None, from_checkpoint=None, progress=None,
        export_csv=None, export_json=None,
    )
    assert vars(sweep_args([])) == dict(
        FAULT_DEFAULTS,
        widths="1,2,4,8", disciplines="fifo,stack",
        recoveries="checkpoint,rob-walk,checkpoint-free",
        runs=4, scale=1.0, benchmarks="crc32,qsort", seed=1, jobs=1,
        snapshot_interval=250, batch_size=8, checkpoint_dir=None,
        resume=False, bench_output="BENCH_core.json", no_bench=False,
    )
    assert vars(fuzz_args([])) == dict(
        FAULT_DEFAULTS,
        seed=1, budget=500, jobs=1, batch=32, shrink_budget=250,
        artifacts=None, save_corpus=None, checkpoint=None, resume=None,
        progress=None, replay=None,
    )
    assert vars(bench_args([])) == dict(
        runs=8, scale=1.0, benchmarks="all", seed=1, snapshot_interval=25,
        profile=False, output="BENCH_core.json",
    )
    assert vars(_parse_work_args(["--coordinator", "http://c"])) == dict(
        coordinator="http://c", workdir=None, jobs=1, snapshot_interval=250,
        batch_size=8, poll=None, worker_id=None, secret_file=None,
        call_deadline=60.0, offline_budget=300.0,
    )


@pytest.mark.parametrize(
    "flag, value",
    [("--batch-size", "0"), ("--snapshot-interval", "-1"), ("--jobs", "0")],
)
def test_work_rejects_bad_run_flags_before_any_rpc(
    flag, value, tmp_path, capsys
):
    """A bad value must stop ``repro work`` at the CLI edge, not reach
    every leased shard. Nothing listens on the coordinator port, so a
    worker that got past the check would spend its offline budget."""
    from repro.exec.fabric.cli import work_main

    started = time.monotonic()
    code = work_main([
        "--coordinator", "http://127.0.0.1:1", "--workdir", str(tmp_path),
        "--call-deadline", "1", "--offline-budget", "1", flag, value,
    ])
    assert code == 2
    assert time.monotonic() - started < 5
    assert f"{flag} must be >=" in capsys.readouterr().err
