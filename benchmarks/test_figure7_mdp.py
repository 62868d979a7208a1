"""Figure 7: the IDLD use case for the Store-Sets MDP.

Shape targets from Section V.F: golden streams never alarm; suppressed
LFST removals (the hang-risk direction the paper motivates) are caught by
the quiescent checks and/or the checkpointed variant with bounded
latency; insertion suppression does not violate the closed-loop invariant
(it is a predictor miss, handled by training).
"""

import random

from repro.idld.flow import FlowSignalFabric
from repro.mdp import (
    CheckpointedMDPChecker,
    MDPIDLDChecker,
    MDPPipeline,
    MDPSignal,
    StoreSetsPredictor,
    make_stream,
)

from conftest import emit

TRIALS = 25


def run_one(seed, suppress=None, at_cycle=60):
    stream = make_stream(400, seed=seed)
    fabric = FlowSignalFabric()
    armed = fabric.arm(suppress, at_cycle) if suppress else None
    quiescent = MDPIDLDChecker()
    checkpointed = CheckpointedMDPChecker(interval=8)
    observers = [quiescent, checkpointed]
    predictor = StoreSetsPredictor(fabric=fabric, observers=observers)
    pipeline = MDPPipeline(
        stream, predictor=predictor, fabric=fabric, observers=observers
    )
    result = pipeline.run(max_cycles=20_000)
    return result, quiescent, checkpointed, armed


def test_figure7_mdp_coverage(benchmark):
    benchmark(lambda: run_one(3))

    rng = random.Random(0)
    stats = {}
    for signal in (MDPSignal.LFST_REMOVE_EXEC, MDPSignal.LFST_REMOVE_DISPLACE):
        fired = detected = 0
        latencies = []
        for _ in range(TRIALS):
            _, quiescent, checkpointed, armed = run_one(
                rng.randrange(10**6), suppress=signal,
                at_cycle=rng.randint(10, 150),
            )
            if not armed.fired:
                continue
            fired += 1
            cycles = [
                c.first_detection_cycle
                for c in (quiescent, checkpointed)
                if c.detected
            ]
            if cycles:
                detected += 1
                latencies.append(min(cycles) - armed.fired_cycle)
        stats[signal.value] = (fired, detected, latencies)

    lines = ["Figure 7 -- MDP IDLD detection of LFST removal suppressions"]
    for name, (fired, detected, latencies) in stats.items():
        max_latency = max(latencies) if latencies else 0
        lines.append(
            f"  {name:24s} fired={fired:2d} detected={detected:2d} "
            f"max_latency={max_latency}"
        )
    emit(lines)

    for name, (fired, detected, latencies) in stats.items():
        assert fired >= TRIALS // 2
        # High (not necessarily total) coverage: quiescent checks can miss
        # a removal failure that heals before any check opportunity.
        assert detected / fired >= 0.7, name
        assert latencies and max(latencies) < 2_000


def test_figure7_golden_streams_never_alarm(benchmark):
    benchmark(lambda: run_one(0))
    for seed in range(10):
        _, quiescent, checkpointed, _ = run_one(seed)
        assert not quiescent.detected
        assert not checkpointed.detected


def test_figure7_insert_suppression_is_not_an_invariance_violation(benchmark):
    """A suppressed insertion leaves the closed loop balanced (the ID never
    entered); the harm is a predictor miss, not a leak (Section V.F scopes
    IDLD to the insert-must-be-removed invariance)."""
    benchmark(lambda: run_one(1, suppress=MDPSignal.LFST_INSERT))
    hits = 0
    for seed in range(8):
        result, quiescent, checkpointed, armed = run_one(
            seed, suppress=MDPSignal.LFST_INSERT
        )
        if not armed.fired:
            continue
        hits += 1
        assert not result.hung
        assert not quiescent.detected
        assert not checkpointed.detected
    assert hits >= 4
