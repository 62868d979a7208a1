"""Property tests for the differential convergence predicate.

The soundness contract of :func:`repro.bugs.differential.converged` has two
halves, and hypothesis probes both from randomized angles:

* **No behavior change** — a differentially-executed run (early-terminated
  or not) must classify identically to the same spec forced through the
  full-suffix path.
* **No false convergence** — a state that can still diverge from the
  golden trajectory must never satisfy the predicate: an armed (unfired)
  injection, or machine state that silently differs from the golden
  snapshot (the canonical dormant case: an at-rest free-list upset whose
  corrupted identifier is only consumed many cycles later).

The base case rides along: a genuinely clean restored state *does*
converge at its own snapshot cycle once IDLD has latched, so the predicate
is not vacuously conservative; with IDLD silent it does not. The refusal
properties latch IDLD first, so they reach the state compare instead of
stopping at that gate.
"""

import random

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.bugs.campaign import run_injection
from repro.bugs.differential import Reconvergence, converged
from repro.bugs.injector import draw_spec
from repro.bugs.models import PRIMARY_MODELS
from repro.bugs.snapshot import SnapshotProvider, make_detectors
from repro.core.config import CoreConfig
from repro.core.cpu import OoOCore
from repro.core.rrs.signals import SignalFabric
from repro.idld.checker import Violation
from repro.workloads import WORKLOADS

INTERVAL = 20
_SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_ENV = {}


def _env():
    """Shared (program, snapshot provider) pair, built once.

    A module-level cache rather than a fixture: hypothesis re-enters the
    test body per example, and the provider (a full instrumented golden
    run) must not be rebuilt every time.
    """
    if not _ENV:
        prog = WORKLOADS["bitcount"](scale=0.3)
        _ENV["prog"] = prog
        _ENV["provider"] = SnapshotProvider(prog, INTERVAL)
    return _ENV["prog"], _ENV["provider"]


def _restored(prog, provider, cycle, latched=True):
    """A fresh core + detector set restored to the snapshot at ``cycle``,
    with IDLD latched there unless ``latched`` is False."""
    fabric = SignalFabric()
    detectors = make_detectors()
    core = OoOCore(
        prog, config=CoreConfig(), observers=list(detectors), fabric=fabric
    )
    provider.restore_into(provider.at(cycle), core, detectors)
    if latched:
        detectors[0].violations.append(Violation(cycle, 0, 0, 0, 1))
    return core, detectors, fabric


# -- no behavior change -------------------------------------------------------


@settings(**_SETTINGS)
@given(
    model=st.sampled_from(PRIMARY_MODELS),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_differential_classifies_like_forced_full_run(model, seed):
    """Differential runs, early-terminated or not, == full-suffix runs."""
    prog, provider = _env()
    golden = provider.golden
    spec = draw_spec(model, random.Random(seed), golden.cycles, CoreConfig())
    diff = run_injection(prog, golden, spec, snapshots=provider)
    full = run_injection(prog, golden, spec)
    # InjectionResult equality spans every simulation-outcome field;
    # early_terminated_cycle is compare-excluded bookkeeping.
    assert diff == full
    assert full.early_terminated_cycle is None


# -- no false convergence -----------------------------------------------------


@settings(**_SETTINGS)
@given(pick=st.integers(min_value=0, max_value=2**30))
def test_clean_restored_state_converges(pick):
    """Base case: the golden state at a snapshot cycle, with IDLD latched,
    converges there exactly: no identifier missing, nothing predicted."""
    prog, provider = _env()
    cycles = provider.candidate_cycles
    cycle = cycles[pick % len(cycles)]
    core, detectors, fabric = _restored(prog, provider, cycle)
    assert converged(provider, core, detectors, fabric, cycle) == (
        Reconvergence(cycle, 0, None, None)
    )


@settings(**_SETTINGS)
@given(pick=st.integers(min_value=0, max_value=2**30))
def test_clean_restored_state_never_converges_with_idld_silent(pick):
    """The same state with IDLD silent: no run ends before IDLD latches."""
    prog, provider = _env()
    cycles = provider.candidate_cycles
    cycle = cycles[pick % len(cycles)]
    core, detectors, fabric = _restored(prog, provider, cycle, latched=False)
    assert converged(provider, core, detectors, fabric, cycle) is None


@settings(**_SETTINGS)
@given(
    pick=st.integers(min_value=0, max_value=2**30),
    mask=st.integers(min_value=1, max_value=2**30),
)
def test_armed_injection_never_converges(pick, mask):
    """Any armed (unfired) injection blocks convergence outright."""
    prog, provider = _env()
    cycles = provider.candidate_cycles
    cycle = cycles[pick % len(cycles)]
    core, detectors, fabric = _restored(prog, provider, cycle)
    fabric.arm_corruption(
        cycle + 1, mask % ((1 << core.config.pdst_bits) - 1) + 1
    )
    assert fabric.any_armed
    assert converged(provider, core, detectors, fabric, cycle) is None


@settings(**_SETTINGS)
@given(
    pick=st.integers(min_value=0, max_value=2**30),
    offset=st.integers(min_value=0, max_value=2**30),
    mask=st.integers(min_value=1, max_value=2**30),
)
def test_dormant_at_rest_upset_never_converges(pick, offset, mask):
    """A silently corrupted free-list entry — invisible to every detector
    until the identifier is consumed — must block convergence."""
    prog, provider = _env()
    cycles = provider.candidate_cycles
    cycle = cycles[pick % len(cycles)]
    core, detectors, fabric = _restored(prog, provider, cycle)
    live = core.free_list.count
    assume(live > 0)
    core.free_list.corrupt_stored(
        offset % live, mask % ((1 << core.config.pdst_bits) - 1) + 1
    )
    assert converged(provider, core, detectors, fabric, cycle) is None


def test_refuses_a_golden_that_persists():
    """An early end reports ``persists`` as ``k >= 1``. Were the golden run
    itself to persist, a ``k = 0`` end would report False where the full
    run measures True, so the predicate refuses such a golden."""
    prog, provider = _env()
    cycle = provider.candidate_cycles[0]
    core, detectors, fabric = _restored(prog, provider, cycle)
    assert converged(provider, core, detectors, fabric, cycle) is not None
    provider.delta.golden_persists = True
    try:
        assert converged(provider, core, detectors, fabric, cycle) is None
    finally:
        provider.delta.golden_persists = False
