"""Broader-applicability use case: IDLD guarding a NoC credit link.

Section V.F closes by claiming the recipe transfers to "bus communication,
exchanges between NoC links, FIFOs etc.". This bench injects the link's
three control-signal failures over randomized traffic and measures the
guards' coverage, including the paper's hallmark case: a silently bleeding
credit loop behind a perfectly healthy data stream (invisible to any
end-to-end payload check -- the end-of-test analog).
"""

import random

from repro.idld.flow import FlowSignalFabric
from repro.noc import (
    CreditLink,
    LinkAssertion,
    NocSignal,
    run_traffic,
)

from conftest import emit

TRIALS = 20


def run_one(seed, signal=None, at_cycle=40):
    fabric = FlowSignalFabric()
    armed = fabric.arm(signal, at_cycle) if signal else None
    link = CreditLink(fabric=fabric)
    error = None
    try:
        stats = run_traffic(link, 200, seed=seed, max_cycles=10_000)
    except LinkAssertion as exc:
        error = exc
        stats = link.stats
    return link, stats, armed, error


def test_usecase_noc_coverage(benchmark):
    benchmark(lambda: run_one(1))

    rng = random.Random(3)
    rows = {}
    masked_to_payloads = 0
    for signal in NocSignal:
        fired = caught = 0
        for _ in range(TRIALS):
            link, stats, armed, error = run_one(
                rng.randrange(10**6), signal, rng.randint(10, 150)
            )
            if not armed.fired:
                continue
            fired += 1
            detected = (
                link.flit_guard.detected
                or link.credit_guard.detected
                or error is not None
            )
            caught += detected
            if signal is NocSignal.CREDIT_RETURN and stats.drained == 200:
                masked_to_payloads += 1
        rows[signal.value] = (fired, caught)

    lines = ["NoC use case -- guard coverage per injected signal"]
    for name, (fired, caught) in rows.items():
        lines.append(f"  {name:15s} fired={fired:2d} detected={caught:2d}")
    lines.append(
        f"  credit leaks invisible to payload checking: "
        f"{masked_to_payloads} (all caught by the credit-loop guard)"
    )
    emit(lines)

    for name, (fired, caught) in rows.items():
        assert fired >= TRIALS // 2, name
        assert caught == fired, name  # full coverage across both loops

    # The hallmark: most credit leaks deliver every payload correctly --
    # undetectable end-to-end -- yet the guard sees every one of them.
    assert masked_to_payloads >= 1


def test_usecase_noc_golden_clean(benchmark):
    link, stats, _, error = benchmark(lambda: run_one(7))
    assert error is None
    assert stats.drained == 200
    assert not link.flit_guard.detected
    assert not link.credit_guard.detected
    assert link.credit_census_clean()
