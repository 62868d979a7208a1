"""Differential tests for snapshot-driven injection (repro.bugs.snapshot).

The whole optimization rests on one property: a snapshot-driven injection
run is *bit-identical* to the cold run of the same spec. These tests assert it
at three levels — raw core save/restore, single injections across every
suite benchmark and primary bug model, and whole engine campaigns across
snapshot intervals and worker counts.
"""

import random

import pytest

from repro.bugs.campaign import run_golden, run_injection
from repro.bugs.injector import draw_spec
from repro.bugs.models import PRIMARY_MODELS
from repro.bugs.snapshot import SnapshotProvider, make_detectors
from repro.core.config import CoreConfig
from repro.core.cpu import OoOCore
from repro.exec.backends import ProcessPoolBackend
from repro.exec.engine import run_engine
from repro.workloads import WORKLOADS

SUITE = sorted(WORKLOADS)
SCALE = 0.4

_TIMING_KEYS = ("sim_wall_ns", "warm_start_cycles_skipped")


def _canon(result):
    """RunResult as a comparable tuple, measurement metadata stripped."""
    stats = {k: v for k, v in result.stats.items() if k not in _TIMING_KEYS}
    return (
        result.program_name,
        result.cycles,
        result.halted,
        list(result.output),
        list(result.commit_pcs),
        list(result.commit_cycles),
        stats,
    )


@pytest.fixture(scope="module")
def programs():
    return {name: WORKLOADS[name](scale=SCALE) for name in SUITE}


# -- core-level round trip -----------------------------------------------------


def test_save_restore_mid_run_is_field_identical(programs):
    """Continue-from-snapshot reproduces the original run exactly."""
    prog = programs["qsort"]
    detectors = make_detectors()
    core = OoOCore(prog, observers=list(detectors))
    for _ in range(150):
        core.step()
    assert not core.halted
    state = core.save_state()
    det_states = [d.save_state() for d in detectors]
    reference = core.run()

    restored = make_detectors()
    core2 = OoOCore(prog, observers=list(restored))
    core2.load_state(state)
    for det, det_state in zip(restored, det_states):
        det.load_state(det_state)
    resumed = core2.run()

    assert _canon(resumed) == _canon(reference)
    for a, b in zip(restored, detectors):
        assert a.save_state() == b.save_state()


def test_provider_golden_matches_plain_golden(programs):
    """The instrumented snapshot run is still a bona fide golden run."""
    prog = programs["sha"]
    provider = SnapshotProvider(prog, 20)
    assert _canon(provider.golden) == _canon(run_golden(prog))
    assert provider.count > 0


def test_provider_matches_lockstep_golden(programs):
    """The provider drives its golden through run_cycles, fast-forward
    included; every snapshot, fingerprint and detector state must equal
    a plain one-step-at-a-time golden captured at the same cycles."""
    prog = programs["basicmath"]
    # Long-latency divides open quiescent spans the golden skips.
    skipping = OoOCore(prog, observers=list(make_detectors()))
    skipping.run()
    assert skipping.ff_cycles_skipped > 0
    interval = 20
    provider = SnapshotProvider(prog, interval)
    detectors = make_detectors()
    core = OoOCore(prog, observers=list(detectors))
    reference = {}
    while not core.halted:
        core.step()
        if core.cycle % interval == 0 and not core.halted:
            reference[core.cycle] = (
                core.save_state(light_trace=True),
                tuple(d.save_state() for d in detectors),
                core.fingerprint(),
            )
    assert _canon(provider.golden) == _canon(core.result())
    assert provider.candidate_cycles == sorted(reference)
    assert sorted(provider.delta.fingerprints) == provider.candidate_cycles
    for cycle, (core_state, detector_states, fingerprint) in reference.items():
        snapshot = provider.at(cycle)
        assert snapshot.core_state == core_state, cycle
        assert snapshot.detector_states == detector_states, cycle
        assert provider.delta.fingerprints[cycle] == fingerprint, cycle
    assert provider.delta.clean
    assert provider.delta.golden_persists == (not core.census_is_clean())


# -- injection-level: warm == cold over the whole suite x primary models ------


@pytest.mark.parametrize("name", SUITE)
def test_warm_injection_equals_cold(name, programs):
    prog = programs[name]
    provider = SnapshotProvider(prog, 20)
    golden = provider.golden
    rng = random.Random(0xC0FFEE)
    config = CoreConfig()
    skipped_any = False
    for model in PRIMARY_MODELS:
        spec = draw_spec(model, rng, golden.cycles, config)
        cold = run_injection(prog, golden, spec)
        warm = run_injection(prog, golden, spec, snapshots=provider)
        # InjectionResult equality covers every simulation outcome field;
        # the timing fields are compare=False by design.
        assert warm == cold, f"{name}/{model.value} diverged"
        skipped_any = skipped_any or warm.warm_start_cycles_skipped > 0
        assert cold.warm_start_cycles_skipped == 0
    assert skipped_any, f"no injection of {name} ever warm-started"


def test_snapshot_every_cycle_equals_off(programs):
    """interval=1 (nearest snapshot is always inject_cycle - 1) vs cold."""
    prog = programs["bitcount"]
    provider = SnapshotProvider(prog, 1)
    golden = provider.golden
    rng = random.Random(7)
    config = CoreConfig()
    for model in PRIMARY_MODELS:
        spec = draw_spec(model, rng, golden.cycles, config)
        cold = run_injection(prog, golden, spec)
        warm = run_injection(prog, golden, spec, snapshots=provider)
        assert warm == cold
        assert warm.warm_start_cycles_skipped == spec.inject_cycle - 1


# -- engine-level: campaigns bit-identical across intervals and jobs ----------


def test_engine_campaigns_identical_across_intervals_and_jobs(programs):
    subset = {name: programs[name] for name in ("qsort", "dijkstra")}
    base = run_engine(subset, 2, seed=5)
    for interval in (25, 250):
        again = run_engine(subset, 2, seed=5, snapshot_interval=interval)
        assert again.results == base.results
    pooled = run_engine(
        subset,
        2,
        seed=5,
        snapshot_interval=25,
        backend=ProcessPoolBackend(jobs=2),
    )
    assert pooled.results == base.results
