"""Ablation: RRS design knobs the DESIGN.md calls out.

Two sweeps on the live simulator:

* checkpoint interval -- denser checkpoints shorten the positive walks
  (fewer recovery cycles) at the cost of CKPT pressure; recovery-cycle
  totals must fall monotonically-ish as the interval shrinks;
* predictor choice -- gshare vs bimodal changes wrong-path density, which
  moves the masked fraction of corruption bugs (wrong-path activations are
  repaired through the RHT, Section III.B).
"""

import random

from repro.core import CoreConfig, OoOCore
from repro.bugs.models import BugModel
from repro.exec.engine import run_engine

from conftest import BENCH_SEED, emit


def test_ablation_checkpoint_interval(benchmark, figure_suite):
    program = figure_suite["dijkstra"]

    def run_with_interval(interval):
        config = CoreConfig(checkpoint_interval=interval)
        return OoOCore(program, config=config).run()

    benchmark(lambda: run_with_interval(24))

    # 32 is the largest legal interval for the paper geometry (the RHT
    # must hold rob_entries + interval entries).
    results = {i: run_with_interval(i) for i in (8, 24, 32)}
    lines = ["Ablation -- checkpoint interval vs recovery cost (dijkstra)"]
    for interval, result in results.items():
        lines.append(
            f"  interval {interval:>2}: {result.stats['recovery_cycles']:>6} "
            f"recovery cycles over {result.stats['flushes']} flushes, "
            f"{result.cycles} total cycles"
        )
    emit(lines)

    # Same architectural result regardless of the knob.
    outputs = {tuple(r.output) for r in results.values()}
    assert len(outputs) == 1
    # Dense checkpoints mean shorter walks.
    per_flush = {
        i: r.stats["recovery_cycles"] / max(1, r.stats["flushes"])
        for i, r in results.items()
    }
    assert per_flush[8] < per_flush[32]


def test_ablation_predictor_choice(benchmark, figure_suite):
    programs = benchmark(lambda: {
        name: figure_suite[name] for name in ("crc32", "qsort", "stringsearch")
    })
    stats = {}
    for kind in ("gshare", "bimodal"):
        config = CoreConfig(predictor_kind=kind)
        campaign = run_engine(
            programs, runs_per_model=5, seed=BENCH_SEED,
            models=(BugModel.PDST_CORRUPTION,), config=config,
        )
        stats[kind] = {
            "masked": campaign.masked_fraction(model=BugModel.PDST_CORRUPTION),
            "flushes": {
                name: g.stats["flushes"]
                for name, g in campaign.goldens.items()
            },
        }

    emit([
        "Ablation -- predictor choice vs corruption masking",
        f"  gshare:  masked {stats['gshare']['masked']:.0%}, "
        f"golden flushes {stats['gshare']['flushes']}",
        f"  bimodal: masked {stats['bimodal']['masked']:.0%}, "
        f"golden flushes {stats['bimodal']['flushes']}",
    ])

    # On the patterned crc32 inner loop, history-based prediction removes
    # almost all flushes; bimodal cannot (its counters saturate taken).
    assert stats["gshare"]["flushes"]["crc32"] < stats["bimodal"]["flushes"]["crc32"]
    # Masking moves with wrong-path density but within the same regime.
    assert abs(stats["bimodal"]["masked"] - stats["gshare"]["masked"]) < 0.5
