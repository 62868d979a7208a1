"""Regenerate the seed regression corpus (tests/corpus/*.json).

Run from the repo root::

    PYTHONPATH=src python tests/corpus/make_corpus.py

Every artifact is self-contained (genome + config + optional armed bug +
recorded verdict); tests/test_corpus.py replays each one and asserts the
verdict still reproduces. The passing half pins interesting coverage
inputs from a small fixed-seed campaign; the failing half arms known
leakage/duplication bugs so the detector-silence oracle is exercised too.
"""

import hashlib
import json
import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", ".."))

from repro.bugs.campaign import run_injection
from repro.bugs.injector import draw_spec
from repro.bugs.models import (
    BugModel,
    BugSpec,
    DUPLICATION_SIGNALS,
    LEAKAGE_SIGNALS,
    PRIMARY_MODELS,
)
from repro.bugs.snapshot import SnapshotProvider
from repro.core.config import CoreConfig
from repro.exec.checkpoint import result_to_dict, spec_to_dict
from repro.fuzz.artifacts import ReproArtifact, Verdict, save_artifact
from repro.fuzz.engine import FuzzCampaign, run_fuzz
from repro.fuzz.genome import build_program
from repro.fuzz.oracle import evaluate
from repro.workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))

#: How many passing (coverage) artifacts to pin from the clean campaign.
PASSING_KEEP = 4

#: Differential adversarial-seed workload and provider geometry. Small
#: enough to replay in CI, long enough (~800 golden cycles) that dormancy
#: windows span many snapshot intervals.
DIFF_BENCHMARK = "bitcount"
DIFF_SCALE = 0.3
DIFF_INTERVAL = 20

#: Seeds kept per adversarial category (see _categorize).
DIFF_KEEP = 2

#: Measurement metadata excluded from the recorded classification: these
#: may legitimately change with execution strategy, never the rest.
DIFF_BOOKKEEPING = (
    "sim_wall_ns",
    "warm_start_cycles_skipped",
    "early_terminated_cycle",
)


def _categorize(full, diff, interval):
    """The adversarial-to-convergence category of one injection, or None.

    * ``dormant-persists`` — the corruption is still latent at HALT
      (e.g. an at-rest FL upset whose identifier was consumed late, or
      never): the machine *looks* reconverged for long stretches, and a
      predicate keying on fingerprints alone would misclassify it.
    * ``late-manifestation`` — activation and architectural manifestation
      are >= 3 snapshot intervals apart: a long apparently-healthy window
      in which early termination would be wrong.
    * ``detected-then-converged`` — a detector fired *and* the run still
      terminated early: pins the relaxed tracking-state comparison (a
      desynced detector only blocks convergence while its first detection
      is pending).
    """
    if full.activated and full.persists:
        return "dormant-persists"
    if (
        full.manifestation_cycle is not None
        and full.activation_cycle is not None
        and full.manifestation_cycle - full.activation_cycle >= 3 * interval
    ):
        return "late-manifestation"
    detected = (
        full.idld_cycle is not None
        or full.bv_cycle is not None
        or full.counter_cycle is not None
    )
    if detected and diff.early_terminated_cycle is not None:
        return "detected-then-converged"
    return None


def make_differential_seeds() -> None:
    """Pin adversarial late-divergence seeds for the convergence predicate.

    Each seed records the *full-suffix* classification as ground truth;
    tests/test_corpus.py replays both execution modes and asserts the
    differential run reproduces it bit-for-bit. The categories are chosen
    so the corpus keeps covering the paths where a sloppier predicate
    would silently misclassify.
    """
    program = WORKLOADS[DIFF_BENCHMARK](scale=DIFF_SCALE)
    provider = SnapshotProvider(program, DIFF_INTERVAL)
    golden = provider.golden
    config = CoreConfig()
    rng = random.Random(0xD0D0)
    kept = {
        "dormant-persists": 0,
        "late-manifestation": 0,
        "detected-then-converged": 0,
    }
    attempts = 0
    while any(n < DIFF_KEEP for n in kept.values()) and attempts < 2000:
        attempts += 1
        model = rng.choice(list(PRIMARY_MODELS))
        spec = draw_spec(model, rng, golden.cycles, config)
        full = run_injection(program, golden, spec)
        diff = run_injection(program, golden, spec, snapshots=provider)
        assert diff == full, f"differential mismatch while mining: {spec}"
        category = _categorize(full, diff, DIFF_INTERVAL)
        if category is None or kept[category] >= DIFF_KEEP:
            continue
        kept[category] += 1
        recorded = result_to_dict(full)
        for key in DIFF_BOOKKEEPING:
            recorded.pop(key)
        seed = {
            "kind": "differential",
            "category": category,
            "benchmark": DIFF_BENCHMARK,
            "scale": DIFF_SCALE,
            "interval": DIFF_INTERVAL,
            "spec": spec_to_dict(spec),
            "recorded": recorded,
            # Informational only: the convergence point observed when the
            # seed was mined. Replays do not assert it (the deep-compare
            # backoff stride may legally shift it) — only the recorded
            # classification above is load-bearing.
            "early_terminated_cycle": diff.early_terminated_cycle,
        }
        payload = json.dumps(
            {"spec": seed["spec"], "benchmark": DIFF_BENCHMARK}, sort_keys=True
        )
        digest = hashlib.blake2b(payload.encode(), digest_size=6).hexdigest()
        path = os.path.join(HERE, f"diff-{digest}.json")
        with open(path, "w") as handle:
            json.dump(seed, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote", path, f"({category})")
    missing = [name for name, n in kept.items() if n < DIFF_KEEP]
    assert not missing, f"no adversarial seeds found for: {missing}"


def main() -> None:
    for name in os.listdir(HERE):
        if name.endswith(".json"):
            os.remove(os.path.join(HERE, name))

    # Passing half: the first few corpus entries of a fixed clean campaign.
    summary = run_fuzz(seed=11, budget=30, batch=10)
    config = CoreConfig()
    for entry in summary.corpus[:PASSING_KEEP]:
        report = evaluate(build_program(entry.genome), config=config)
        assert report.ok, report.failures
        artifact = ReproArtifact(
            name="cov",
            genome=entry.genome,
            config=config,
            verdict=Verdict.from_report(report),
            coverage=report.coverage,
            seed=11,
            origin=f"fuzz:{entry.origin}@{entry.index}",
        )
        print("wrote", save_artifact(artifact, HERE))

    # Failing half: the same inputs against cores armed with known bugs;
    # the recorded verdict includes which referees fired.
    bugs = [
        ("leak", BugModel.LEAKAGE, LEAKAGE_SIGNALS[0]),
        ("leak", BugModel.LEAKAGE, LEAKAGE_SIGNALS[1]),
        ("dup", BugModel.DUPLICATION, DUPLICATION_SIGNALS[0]),
        ("dup", BugModel.DUPLICATION, DUPLICATION_SIGNALS[1]),
    ]
    campaign = FuzzCampaign(seed=11, budget=30)
    for index, (name, model, (array, kind)) in enumerate(bugs):
        # Not every (signal, cycle) pair perturbs every program — probe a
        # few inject cycles and keep the first that flips the oracle.
        for cycle in (60, 80, 100, 150, 200):
            spec = BugSpec(
                model=model, inject_cycle=cycle, array=array, kind=kind
            )
            genome = campaign.schedule(index).genome
            report = evaluate(build_program(genome), config=config, bug=spec)
            if not report.ok:
                break
        assert not report.ok, f"{name}: bug never flipped the oracle"
        artifact = ReproArtifact(
            name=name,
            genome=genome,
            config=config,
            verdict=Verdict.from_report(report),
            coverage=report.coverage,
            bug=spec,
            seed=11,
            origin=f"armed:{model.value}@{cycle}",
        )
        print("wrote", save_artifact(artifact, HERE))

    # Adversarial half for the differential engine: late-divergence seeds
    # pinning the convergence predicate against silent misclassification.
    make_differential_seeds()


if __name__ == "__main__":
    main()
