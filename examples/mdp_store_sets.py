#!/usr/bin/env python3
"""The Figure 7 use case: IDLD guarding the Store-Sets MDP.

Drives a bursty load/store stream through the store-sets predictor, then
suppresses an LFST removal: the inner ID of a departed store lingers in
the table. The SQ-empty / counter-zero checks of Section V.F detect the
insertion/removal XOR mismatch; the checkpointed variant detects it even
when the store queue never drains.
"""

from repro.idld.flow import FlowSignalFabric
from repro.mdp import (
    CheckpointedMDPChecker,
    MDPIDLDChecker,
    MDPPipeline,
    MDPSignal,
    StoreSetsPredictor,
    make_stream,
)


def run(suppress=None, at_cycle=100, seed=5):
    stream = make_stream(600, seed=seed)
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


def main() -> None:
    print("=== bug-free stream ===")
    result, quiescent, checkpointed, _ = run()
    print(f"completed {result.completed} ops in {result.cycles} cycles, "
          f"{result.violations} memory-order violations trained the SSIT")
    print(f"quiescent-check violations:   {len(quiescent.violations)} (expected 0)")
    print(f"checkpointed-check violations: {len(checkpointed.violations)} (expected 0)\n")

    for signal in (MDPSignal.LFST_REMOVE_EXEC, MDPSignal.LFST_REMOVE_DISPLACE):
        print(f"=== suppressing {signal.value} ===")
        result, quiescent, checkpointed, armed = run(suppress=signal)
        print(f"bug activated at cycle {armed.fired_cycle}; "
              f"stream {'HUNG' if result.hung else 'completed'}; "
              f"{result.lfst_leftover} stale LFST entries at the end")
        for name, checker in (("quiescent", quiescent), ("checkpointed", checkpointed)):
            if checker.detected:
                latency = checker.first_detection_cycle - armed.fired_cycle
                policy = checker.violations[0].policy
                print(f"  {name:13s} detected via '{policy}' check, "
                      f"latency {latency} cycles")
            else:
                print(f"  {name:13s} did not detect (no checking opportunity "
                      f"before the table healed)")
        print()


if __name__ == "__main__":
    main()
