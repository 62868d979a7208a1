"""Replay the seed regression corpus (tests/corpus/*.json).

Each artifact is a self-contained fuzz repro: genome + core config +
(optional) armed bug + the oracle verdict recorded when it was created.
Replaying asserts the verdict still reproduces bit-for-bit, which turns
every pinned finding and coverage seed into a permanent regression test:
a core or detector change that alters any recorded outcome fails here
with the exact artifact named.

Regenerate after an *intentional* behaviour change with::

    PYTHONPATH=src python tests/corpus/make_corpus.py
"""

import glob
import json
import os

import pytest

from repro.bugs.campaign import run_injection
from repro.bugs.snapshot import SnapshotProvider
from repro.core.config import CoreConfig
from repro.exec.checkpoint import result_to_dict, spec_from_dict
from repro.fuzz.artifacts import load_artifact, replay_artifact
from repro.workloads import WORKLOADS

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
_ALL = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))
#: Fuzz repro artifacts (cov-/leak-/dup-) vs differential adversarial
#: seeds (diff-): different schema, different replay harness.
ARTIFACTS = [p for p in _ALL if not os.path.basename(p).startswith("diff-")]
DIFF_SEEDS = [p for p in _ALL if os.path.basename(p).startswith("diff-")]


def test_corpus_is_present():
    """The corpus ships with the repo; an empty glob means a packaging
    problem, not a vacuously green suite."""
    assert len(ARTIFACTS) >= 6
    assert len(DIFF_SEEDS) >= 6


@pytest.mark.parametrize(
    "path", ARTIFACTS, ids=[os.path.basename(p) for p in ARTIFACTS]
)
def test_artifact_replays_to_recorded_verdict(path):
    artifact = load_artifact(path)
    matches, report = replay_artifact(artifact)
    assert matches, (
        f"{os.path.basename(path)}: recorded "
        f"{'pass' if artifact.verdict.ok else '+'.join(artifact.verdict.failures)!r} "
        f"but replay produced {report.verdict!r}"
    )
    # Failing artifacts must carry their armed bug (a failure on the
    # bug-free core would be a real finding, pinned elsewhere).
    if not artifact.verdict.ok:
        assert artifact.bug is not None


# -- differential adversarial seeds (diff-*.json) -----------------------------
#
# Each seed is a late-divergence injection whose corruption stays dormant
# past apparent re-convergence (categories: dormant-persists,
# late-manifestation, detected-then-converged), or a leak that pins the
# relabelling check (relabelled: it ends the run early; relabel-floor: the
# golden free list later falls below k + width, so the check must refuse
# the state that otherwise matches). A seed may carry its CoreConfig. The
# recorded verdict is the *full-suffix* classification; the replay asserts
# the differential engine reproduces it bit-for-bit, pinning the
# convergence predicate against silent misclassification, and that the run
# ends where the seed records (``early_terminated_cycle``, None for a run
# simulated to the end), so a change that ends fewer runs early fails here.

#: Execution-strategy bookkeeping excluded from the recorded verdict.
_DIFF_BOOKKEEPING = (
    "sim_wall_ns",
    "warm_start_cycles_skipped",
    "early_terminated_cycle",
)

_PROVIDERS = {}


def _diff_provider(benchmark, scale, interval, config):
    key = (benchmark, scale, interval, repr(config))
    if key not in _PROVIDERS:
        program = WORKLOADS[benchmark](scale=scale)
        _PROVIDERS[key] = (
            program,
            SnapshotProvider(program, interval, config=config),
        )
    return _PROVIDERS[key]


@pytest.mark.parametrize(
    "path", DIFF_SEEDS, ids=[os.path.basename(p) for p in DIFF_SEEDS]
)
def test_differential_seed_replays_to_recorded_verdict(path):
    with open(path) as handle:
        seed = json.load(handle)
    assert seed["kind"] == "differential"
    config = CoreConfig.from_dict(seed["config"]) if "config" in seed else None
    program, provider = _diff_provider(
        seed["benchmark"], seed["scale"], seed["interval"], config
    )
    golden = provider.golden
    spec = spec_from_dict(seed["spec"])

    full = run_injection(program, golden, spec, config=config)
    diff = run_injection(
        program, golden, spec, config=config, snapshots=provider
    )
    # The differential run must match the full-suffix run on every
    # simulation-outcome field (InjectionResult equality excludes only
    # the throughput bookkeeping)...
    assert diff == full, f"{os.path.basename(path)} ({seed['category']})"
    assert diff.early_terminated_cycle == seed["early_terminated_cycle"], (
        f"{os.path.basename(path)}: ends at {diff.early_terminated_cycle}, "
        f"not the recorded {seed['early_terminated_cycle']}"
    )

    # ...and both must still match the verdict recorded at mining time.
    replayed = result_to_dict(full)
    for key in _DIFF_BOOKKEEPING:
        replayed.pop(key)
    assert replayed == seed["recorded"], (
        f"{os.path.basename(path)}: {seed['category']} seed no longer "
        "replays to its recorded classification"
    )
