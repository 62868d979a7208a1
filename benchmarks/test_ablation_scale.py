"""Ablation: masking vs. run length (the scale-gap analysis).

EXPERIMENTS.md attributes our elevated PdstID-corruption masking to short
runs (less time for the delayed dup+leak aftermath to surface; more
checkpoint repairs per corrupted read). This bench measures the trend
directly: masked fractions at two workload scales. Duplication masking
must fall with scale; corruption masking must not rise.
"""

from repro.bugs.models import BugModel
from repro.exec.engine import run_engine
from repro.workloads import WORKLOADS

from conftest import BENCH_SEED, emit

BENCHES = ("bitcount", "crc32", "sha", "qsort")


def masked_at_scale(scale, runs=8):
    programs = {name: WORKLOADS[name](scale=scale) for name in BENCHES}
    campaign = run_engine(programs, runs_per_model=runs, seed=BENCH_SEED)
    return {
        model: campaign.masked_fraction(model=model)
        for model in (BugModel.DUPLICATION, BugModel.LEAKAGE,
                      BugModel.PDST_CORRUPTION)
    }


def test_ablation_masking_vs_scale(benchmark):
    benchmark(lambda: run_engine(
        {"sha": WORKLOADS["sha"]()}, runs_per_model=2, seed=BENCH_SEED
    ))

    small = masked_at_scale(1.0)
    large = masked_at_scale(2.5)

    emit([
        "Ablation -- masked fraction vs workload scale",
        f"  {'model':<18} {'scale 1.0':>10} {'scale 2.5':>10}",
        *(
            f"  {model.value:<18} {small[model]:>9.0%} {large[model]:>9.0%}"
            for model in small
        ),
        "  (the paper's gem5 runs are ~10^4x longer still)",
    ])

    # Longer runs surface duplication aftermath: masking falls (or stays 0).
    assert large[BugModel.DUPLICATION] <= small[BugModel.DUPLICATION] + 0.02
    # Corruption masking must not grow with scale (trend toward the
    # paper's ~3% as runs lengthen).
    assert large[BugModel.PDST_CORRUPTION] <= small[BugModel.PDST_CORRUPTION] + 0.05
    # Leakage masking is dominated by scale-independent benign leaks.
    assert large[BugModel.LEAKAGE] > 0.3
