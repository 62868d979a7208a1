"""Tests for the idld-campaign CLI and the run flags it shares."""

import os

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


@pytest.mark.parametrize(
    "figures, with_bv",
    [
        ([], True),
        (["--figures", "9"], False),
        (["--figures", "10"], True),
        (["--figures", "9,10"], True),
    ],
    ids=["default", "9", "10", "9,10"],
)
def test_coverage_block_prints_once(figures, with_bv, capsys):
    """Figures 9 and 10 share one coverage block; Figure 10 adds the BV
    rows to it rather than printing it again."""
    argv = ["--runs", "1", "--benchmarks", "sha", "--no-progress"]
    assert main(argv + figures) == 0
    out = capsys.readouterr().out
    assert out.count("Figures 9/10 -- detection coverage") == 1
    assert ("bit-vector (BV)" in out) == with_bv


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


def test_resume_at_another_scale_is_refused(tmp_path, capsys):
    """A checkpoint's goldens stay out of its manifest identity, so the
    engine checks them against the live golden runs: resuming with the
    programs built at another ``--scale`` stops with one stderr line that
    names the benchmark, instead of exporting rows of two program sizes."""
    path = str(tmp_path / "run.jsonl")
    argv = [
        "--runs", "1", "--benchmarks", "sha", "--figures", "3",
        "--no-progress",
    ]
    assert main(argv + ["--scale", "0.25", "--checkpoint", path]) == 0
    capsys.readouterr()
    assert main(argv + ["--scale", "0.5", "--resume", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "golden run of sha" in captured.err


def _resume_argv(command, path):
    if command == "campaign":
        return [
            "campaign", "--runs", "1", "--benchmarks", "sha", "--scale",
            "0.25", "--figures", "3", "--no-progress", "--resume", path,
        ]
    return [
        "fuzz", "--seed", "1", "--budget", "4", "--batch", "4",
        "--no-progress", "--resume", path,
    ]


@pytest.mark.parametrize(
    "command, written_by",
    [
        ("campaign", "fuzz"),
        ("fuzz", "campaign"),
        ("campaign", "campaign-v1"),
        ("fuzz", "fuzz-v1"),
    ],
    ids=[
        "campaign-resumes-fuzz",
        "fuzz-resumes-campaign",
        "campaign-resumes-v1",
        "fuzz-resumes-v1",
    ],
)
def test_resume_of_an_unreadable_checkpoint_names_it(
    command, written_by, tmp_path, capsys
):
    """A checkpoint of the other engine, or of another format version, is
    refused by the loader both engines share: exit 2 and one stderr line
    that names the file."""
    import json

    from repro.cli import repro_main
    from repro.exec.durability import seal_record

    path = str(tmp_path / "run.jsonl")
    engine = written_by.split("-")[0]
    argv = _resume_argv(engine, path)
    assert repro_main(argv[:-2] + ["--checkpoint", path]) in (0, 1)
    if written_by.endswith("-v1"):
        with open(path) as handle:
            lines = handle.read().splitlines()
        manifest = json.loads(lines[0])
        manifest["version"] = 1
        lines[0] = json.dumps(seal_record(manifest), sort_keys=True)
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert repro_main(_resume_argv(command, path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and path in captured.err


def test_from_checkpoint_missing_file_clean_error(capsys):
    assert main(["--from-checkpoint", "/nonexistent/run.jsonl"]) == 2
    assert "cannot load checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--jobs", "0"),
        ("--runs", "-1"),
        ("--export-csv", "missing/out.csv"),
        ("--export-json", "missing/out.json"),
    ],
)
def test_invalid_jobs_rejected(flag, value, tmp_path, monkeypatch, capsys):
    """A bad run flag, or an output file in a directory that does not
    exist, stops ``repro campaign`` with one stderr line before anything
    runs, instead of losing a finished run to a traceback."""
    monkeypatch.chdir(tmp_path)  # where no ``missing`` directory exists
    argv = ["--runs", "1", "--benchmarks", "sha", "--figures", "3"]
    assert main(argv + [flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(flag) and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "command, flag",
    [
        ("campaign", ["--batch-size", "8"]),
        ("sweep", ["--batch-size", "8"]),
        ("campaign", ["--no-fallback-serial"]),
        ("sweep", ["--no-fallback-serial"]),
        ("fuzz", ["--no-fallback-serial"]),
    ],
    ids=[
        "campaign",
        "sweep",
        "campaign-no-fallback-serial",
        "sweep-no-fallback-serial",
        "fuzz-no-fallback-serial",
    ],
)
def test_batch_size_is_an_unrecognized_argument(command, flag, capsys):
    """Every backend dispatches one injection at a time, so there is no
    dispatch batch to size; and a pool worker's loss costs only its own
    task, so there is no serial fallback to turn off."""
    from repro.cli import repro_main

    with pytest.raises(SystemExit) as excinfo:
        repro_main([command] + flag)
    assert excinfo.value.code == 2
    message = "unrecognized arguments: " + " ".join(flag)
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["campaign", "sweep"])
def test_retired_snapshot_interval_flag_is_refused(command, capsys):
    """Every campaign restores from golden snapshots, so there is no
    snapshot period to choose and no cold campaign to ask for."""
    from repro.cli import repro_main

    with pytest.raises(SystemExit) as excinfo:
        repro_main([command, "--snapshot-interval", "0"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --snapshot-interval 0" in err


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
    "checkpoint_fsync": False,
}


def test_run_flag_defaults_are_pinned():
    """campaign, sweep and fuzz declare their shared flags through one set
    of helpers; a helper change must not move any command's parsed
    defaults."""
    from repro.cli import _parse_args as campaign_args
    from repro.fuzz.cli import _parse_args as fuzz_args
    from repro.sweep import _parse_args as sweep_args

    assert vars(campaign_args([])) == dict(
        FAULT_DEFAULTS,
        runs=20, scale=1.0, benchmarks="all", seed=1, jobs=1,
        figures="3,4,5,8,9,10,table2",
        checkpoint=None, resume=None, from_checkpoint=None, progress=None,
        export_csv=None, export_json=None,
    )
    assert vars(sweep_args([])) == dict(
        FAULT_DEFAULTS,
        widths="1,2,4,8", disciplines="fifo,stack",
        recoveries="checkpoint,rob-walk,checkpoint-free",
        runs=4, scale=1.0, benchmarks="crc32,qsort", seed=1, jobs=1,
        checkpoint_dir=None,
        resume=False, no_bench=False,
    )
    assert vars(fuzz_args([])) == dict(
        FAULT_DEFAULTS,
        seed=1, budget=500, jobs=1, batch=32, shrink_budget=250,
        artifacts=None, save_corpus=None, checkpoint=None, resume=None,
        progress=None, replay=None,
    )


# Each command's run flags on either side of their bounds: the accepted
# value passes run_args_error, and the refused value stops the command
# with one stderr line and nothing on stdout, before any simulation.
# Output paths are relative to a working directory that holds no
# ``missing`` directory.


def _command(name):
    """``(parse_args, main)`` of one command."""
    if name == "campaign":
        from repro.cli import _parse_args

        return _parse_args, main
    if name == "sweep":
        from repro.sweep import _parse_args, sweep_main

        return _parse_args, sweep_main
    from repro.fuzz.cli import _parse_args, fuzz_main

    return _parse_args, fuzz_main


RUN_FLAG_BOUNDS = [
    # (command, flag, refused, accepted)
    ("campaign", "--runs", "-1", "0"),
    ("campaign", "--jobs", "0", "1"),
    ("campaign", "--max-task-retries", "-1", "0"),
    ("campaign", "--task-timeout", "0", "0.5"),
    ("campaign", "--task-timeout", "nan", "600"),
    ("campaign", "--task-timeout", "inf", "1e7"),
    ("campaign", "--scale", "0", "0.25"),
    ("campaign", "--scale", "-1", "4"),
    ("campaign", "--scale", "nan", "1"),
    ("campaign", "--scale", "inf", "1"),
    ("campaign", "--export-csv", "missing/out.csv", "out.csv"),
    ("campaign", "--export-json", "missing/out.json", "out.json"),
    ("sweep", "--runs", "-1", "0"),
    ("sweep", "--jobs", "0", "1"),
    ("sweep", "--max-task-retries", "-1", "0"),
    ("sweep", "--task-timeout", "0", "0.5"),
    ("sweep", "--task-timeout", "nan", "600"),
    ("sweep", "--scale", "0", "0.25"),
    ("sweep", "--scale", "nan", "1"),
    ("fuzz", "--jobs", "0", "1"),
    ("fuzz", "--max-task-retries", "-1", "0"),
    ("fuzz", "--task-timeout", "0", "0.5"),
    ("fuzz", "--task-timeout", "inf", "600"),
]


@pytest.mark.parametrize("command, flag, refused, accepted", RUN_FLAG_BOUNDS)
def test_run_flag_bound_accepts_the_legal_side(
    command, flag, refused, accepted, tmp_path, monkeypatch
):
    from repro.cli import run_args_error

    monkeypatch.chdir(tmp_path)
    parse, _ = _command(command)
    assert run_args_error(parse([flag, accepted])) is None
    assert run_args_error(parse([flag, refused])) is not None


#: The refusals no other test runs: campaign's other flags are in
#: test_invalid_jobs_rejected above, and sweep's --runs in
#: tests/test_sweep_cli.py.
REFUSED_RUN_FLAGS = [
    ("campaign", ["--max-task-retries", "-1"]),
    ("campaign", ["--task-timeout", "0"]),
    ("campaign", ["--task-timeout", "nan"]),
    ("campaign", ["--task-timeout", "inf", "--jobs", "2"]),
    ("campaign", ["--task-timeout", "inf"]),
    ("campaign", ["--scale", "nan"]),
    ("campaign", ["--scale", "inf"]),
    ("campaign", ["--scale", "0"]),
    ("campaign", ["--scale", "-1"]),
    ("campaign", ["--benchmarks", "nosuch"]),
    ("sweep", ["--jobs", "0"]),
    ("sweep", ["--max-task-retries", "-1"]),
    ("sweep", ["--task-timeout", "0"]),
    ("sweep", ["--task-timeout", "nan"]),
    ("sweep", ["--scale", "inf"]),
    ("sweep", ["--widths", "100"]),
    ("fuzz", ["--jobs", "0"]),
    ("fuzz", ["--max-task-retries", "-1"]),
    ("fuzz", ["--task-timeout", "0"]),
    ("fuzz", ["--task-timeout", "nan"]),
    ("fuzz", ["--budget", "0"]),
    ("fuzz", ["--batch", "0"]),
    ("fuzz", ["--shrink-budget", "-1"]),
    ("fuzz", ["--checkpoint", "a.jsonl", "--resume", "b.jsonl"]),
]


@pytest.mark.parametrize(
    "command, argv",
    REFUSED_RUN_FLAGS,
    ids=["-".join([command] + argv) for command, argv in REFUSED_RUN_FLAGS],
)
def test_bad_run_flag_stops_the_command_before_any_work(
    command, argv, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    _, command_main = _command(command)
    assert command_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert os.listdir(tmp_path) == []  # no checkpoint or export


# -- the repro umbrella command -----------------------------------------------


@pytest.mark.parametrize(
    "retired", ["serve", "submit", "status", "fetch", "work"]
)
def test_retired_fabric_subcommands_are_unknown(retired, capsys):
    """The campaign fabric is gone; its subcommands are plain typos now."""
    from repro.cli import repro_main

    assert repro_main([retired, "--help"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"unknown subcommand {retired!r}\n")


def test_retired_bench_subcommand_is_unknown(capsys):
    """The single-trial throughput harness is gone (perfbench measures
    speed): ``repro bench`` is a typo like the fabric verbs, and no
    ``repro.bench`` module is left to run with ``python -m``."""
    import importlib.util

    from repro.cli import repro_main

    assert repro_main(["bench", "--help"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("unknown subcommand 'bench'\n")
    assert importlib.util.find_spec("repro.bench") is None


@pytest.mark.parametrize(
    "argv, code",
    [([], 2), (["-h"], 0), (["--help"], 0)],
    ids=["no-arguments", "-h", "--help"],
)
def test_repro_usage_lists_the_live_subcommands(argv, code, capsys):
    from repro.cli import repro_main

    assert repro_main(argv) == code
    assert capsys.readouterr().out == (
        "usage: repro {campaign,sweep,fuzz,checkpoint} [options]  "
        "(-h for help)\n"
    )


@pytest.mark.parametrize(
    "subcommand, prog",
    [
        ("campaign", "idld-campaign"),
        ("sweep", "repro sweep"),
        ("fuzz", "repro fuzz"),
        ("checkpoint", "repro checkpoint"),
    ],
)
def test_repro_dispatches_each_subcommand(subcommand, prog, capsys):
    from repro.cli import repro_main

    with pytest.raises(SystemExit) as exit_info:
        repro_main([subcommand, "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: {prog} ")


# -- run_guarded --------------------------------------------------------------


def _raise(exc):
    raise exc


@pytest.mark.parametrize(
    "exc, prefix",
    [
        ("checkpoint", "checkpoint error: "),
        ("os", "checkpoint error: "),
        ("fault", "fault tolerance: "),
    ],
)
def test_run_guarded_maps_run_errors_to_exit_2(exc, prefix, capsys):
    from repro.cli import run_guarded
    from repro.exec.durability import CheckpointError
    from repro.exec.resilience import FaultToleranceError

    error = {
        "checkpoint": CheckpointError("run.jsonl:3: corrupt record"),
        "os": FileNotFoundError(2, "No such file or directory"),
        "fault": FaultToleranceError("task quarantined under --strict"),
    }[exc]
    assert run_guarded(_raise, error) == (None, 2)
    err = capsys.readouterr().err
    assert err == f"{prefix}{error}\n"


def test_run_guarded_passes_results_and_other_errors_through(capsys):
    from repro.cli import run_guarded

    assert run_guarded(lambda a, b=0: a + b, 2, b=3) == (5, 0)
    with pytest.raises(ValueError, match="a bug"):
        run_guarded(_raise, ValueError("a bug"))
    assert capsys.readouterr().err == ""
