"""Tests for the MDP IDLD checkers (Section V.F)."""

import pytest

from repro.idld.flow import FlowSignalFabric
from repro.mdp import (
    CheckpointedMDPChecker,
    MDPIDLDChecker,
    MDPPipeline,
    MDPSignal,
    StoreSetsPredictor,
    make_stream,
)


def run_pipeline(seed=3, suppress=None, at_cycle=60, interval=8, num_ops=400):
    stream = make_stream(num_ops, seed=seed)
    fabric = FlowSignalFabric()
    armed = fabric.arm(suppress, at_cycle) if suppress else None
    quiescent = MDPIDLDChecker()
    checkpointed = CheckpointedMDPChecker(interval=interval)
    observers = [quiescent, checkpointed]
    predictor = StoreSetsPredictor(fabric=fabric, observers=observers)
    pipeline = MDPPipeline(
        stream, predictor=predictor, fabric=fabric, observers=observers
    )
    result = pipeline.run(max_cycles=20_000)
    return result, quiescent, checkpointed, armed


class TestGoldenCleanness:
    @pytest.mark.parametrize("seed", range(6))
    def test_no_false_positives(self, seed):
        _, quiescent, checkpointed, _ = run_pipeline(seed=seed)
        assert not quiescent.detected, quiescent.violations[:2]
        assert not checkpointed.detected, checkpointed.violations[:2]

    def test_xors_balanced_at_end(self):
        _, quiescent, _, _ = run_pipeline()
        assert quiescent.source_xor == quiescent.sink_xor
        assert quiescent.outstanding == 0


class TestDetection:
    def test_displacement_suppression_detected(self):
        _, quiescent, _, armed = run_pipeline(
            suppress=MDPSignal.LFST_REMOVE_DISPLACE
        )
        assert armed.fired
        assert quiescent.detected
        assert quiescent.first_detection_cycle >= armed.fired_cycle

    def test_exec_removal_suppression_detected_by_some_policy(self):
        detections = 0
        fired = 0
        for seed in range(8):
            _, quiescent, checkpointed, armed = run_pipeline(
                seed=seed, suppress=MDPSignal.LFST_REMOVE_EXEC
            )
            if armed.fired:
                fired += 1
                if quiescent.detected or checkpointed.detected:
                    detections += 1
        assert fired >= 5
        assert detections / fired >= 0.7

    def test_detection_policy_recorded(self):
        _, quiescent, _, armed = run_pipeline(
            suppress=MDPSignal.LFST_REMOVE_DISPLACE
        )
        assert armed.fired and quiescent.detected
        assert quiescent.violations[0].policy in ("quiescent", "counter_zero")

    def test_chicken_bit(self):
        stream = make_stream(300, seed=3)
        fabric = FlowSignalFabric()
        fabric.arm(MDPSignal.LFST_REMOVE_DISPLACE, 40)
        checker = MDPIDLDChecker(enabled=False)
        predictor = StoreSetsPredictor(fabric=fabric, observers=[checker])
        MDPPipeline(stream, predictor=predictor, fabric=fabric,
                    observers=[checker]).run(max_cycles=20_000)
        assert not checker.detected


class TestCheckerAlgebra:
    def test_insert_remove_pair_cancels(self):
        checker = MDPIDLDChecker(id_space=16)
        checker.lfst_insert(3, 0)
        checker.lfst_remove(3, 0)
        assert checker.source_xor == checker.sink_xor
        assert checker.outstanding == 0

    def test_zero_id_visible(self):
        """Inner ID 0 must be visible to the code (the extension bit)."""
        checker = MDPIDLDChecker(id_space=16)
        checker.lfst_insert(0, 0)
        assert checker.source_xor != 0

    def test_counter_zero_check_fires_on_swap(self):
        """A removal of the WRONG id at counter-zero is caught even though
        the counter alone is balanced."""
        checker = MDPIDLDChecker(id_space=16)
        checker.lfst_insert(3, 0)
        checker.lfst_remove(4, 1)  # wrong id out
        checker.cycle_end(5)       # counter back to zero -> check fires
        assert checker.detected
        assert checker.violations[0].policy == "counter_zero"

    def test_sq_empty_check_counts_outstanding_insertions(self):
        """Two insertions of one inner ID cancel in the XORs; an empty
        store queue with both still in the LFST alarms on the count."""
        checker = MDPIDLDChecker(id_space=16)
        checker.lfst_insert(3, 0)
        checker.lfst_insert(3, 1)
        checker.sq_empty(9)
        assert checker.detected
        assert checker.violations[0].policy == "quiescent"
        assert checker.violations[0].outstanding == 2


class TestCheckpointedWindows:
    def test_window_opens_every_interval(self):
        checker = CheckpointedMDPChecker(id_space=16, interval=3)
        for seq in range(3):
            checker.lfst_insert(seq, seq)
        assert checker.window_open

    def test_balanced_window_passes(self):
        checker = CheckpointedMDPChecker(id_space=16, interval=2)
        checker.lfst_insert(1, 0)
        checker.lfst_insert(2, 1)   # window closes at seq 1
        checker.lfst_remove(1, 0)
        checker.lfst_remove(2, 1)
        checker.commit_watermark(1, cycle=10)
        assert not checker.detected

    def test_missing_removal_fails_window(self):
        checker = CheckpointedMDPChecker(id_space=16, interval=2)
        checker.lfst_insert(1, 0)
        checker.lfst_insert(2, 1)
        checker.lfst_remove(1, 0)   # removal of id 2 suppressed
        checker.commit_watermark(1, cycle=10)
        assert checker.detected
        assert checker.violations[0].policy == "checkpoint"

    def test_out_of_window_removals_routed_to_future(self):
        checker = CheckpointedMDPChecker(id_space=16, interval=2)
        checker.lfst_insert(1, 0)
        checker.lfst_insert(2, 1)   # window [0, 1] open
        checker.lfst_insert(3, 2)   # future insert
        checker.lfst_remove(3, 2)   # future removal: must not pollute window
        checker.lfst_remove(1, 0)
        checker.lfst_remove(2, 1)
        checker.commit_watermark(1, cycle=10)
        assert not checker.detected

    def test_windows_rearm_after_check(self):
        checker = CheckpointedMDPChecker(id_space=16, interval=2)
        for round_base in (0, 10):
            checker.lfst_insert(1, round_base)
            checker.lfst_insert(2, round_base + 1)
            checker.lfst_remove(1, round_base)
            checker.lfst_remove(2, round_base + 1)
            checker.commit_watermark(round_base + 1, cycle=round_base + 5)
        assert not checker.detected
