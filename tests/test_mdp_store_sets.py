"""Unit tests for the Store-Sets predictor tables."""

import pytest

from repro.idld.flow import FlowSignalFabric
from repro.mdp.signals import MDPSignal
from repro.mdp.store_sets import MDPObserver, StoreSetsPredictor


class Recorder(MDPObserver):
    def __init__(self):
        self.inserts = []
        self.removes = []

    def lfst_insert(self, inner_id, seq):
        self.inserts.append((inner_id, seq))

    def lfst_remove(self, inner_id, seq):
        self.removes.append((inner_id, seq))


@pytest.fixture()
def setup():
    fabric = FlowSignalFabric()
    recorder = Recorder()
    predictor = StoreSetsPredictor(
        ssit_entries=32, lfst_entries=8, fabric=fabric, observers=[recorder]
    )
    return predictor, fabric, recorder


class TestTraining:
    def test_untrained_pcs_have_no_set(self, setup):
        predictor, _, _ = setup
        assert predictor.ssid_for(5) is None

    def test_violation_assigns_common_set(self, setup):
        predictor, _, _ = setup
        predictor.train(load_pc=5, store_pc=9)
        assert predictor.ssid_for(5) == predictor.ssid_for(9) is not None

    def test_second_violation_reuses_store_set(self, setup):
        predictor, _, _ = setup
        predictor.train(5, 9)
        predictor.train(6, 9)
        assert predictor.ssid_for(6) == predictor.ssid_for(9)

    def test_training_with_existing_load_set(self, setup):
        predictor, _, _ = setup
        predictor.train(5, 9)
        predictor.train(5, 11)
        assert predictor.ssid_for(11) == predictor.ssid_for(5)

    def test_suppressed_training_does_nothing(self, setup):
        predictor, fabric, _ = setup
        fabric.arm(MDPSignal.SSIT_TRAIN, 0)
        predictor.train(5, 9)
        assert predictor.ssid_for(5) is None


class TestLfstFlow:
    def test_untrained_store_does_not_insert(self, setup):
        predictor, _, recorder = setup
        assert predictor.store_mapped(pc=5, inner_id=1, seq=0) is None
        assert recorder.inserts == []

    def test_trained_store_inserts(self, setup):
        predictor, _, recorder = setup
        predictor.train(3, 5)
        slot = predictor.store_mapped(pc=5, inner_id=1, seq=0)
        assert slot is not None
        assert recorder.inserts == [(1, 0)]
        assert predictor.lfst_occupancy() == 1

    def test_load_sees_last_fetched_store(self, setup):
        predictor, _, _ = setup
        predictor.train(3, 5)
        predictor.store_mapped(5, inner_id=7, seq=0)
        assert predictor.load_mapped(3) == 7

    def test_untrained_load_sees_nothing(self, setup):
        predictor, _, _ = setup
        assert predictor.load_mapped(3) is None

    def test_displacement_removes_previous(self, setup):
        predictor, _, recorder = setup
        predictor.train(3, 5)
        predictor.store_mapped(5, inner_id=1, seq=0)
        predictor.store_mapped(5, inner_id=2, seq=1)
        assert recorder.removes == [(1, 0)]
        assert predictor.load_mapped(3) == 2

    def test_address_computation_removes_own_entry(self, setup):
        predictor, _, recorder = setup
        predictor.train(3, 5)
        slot = predictor.store_mapped(5, inner_id=1, seq=0)
        predictor.store_address_computed(slot, inner_id=1)
        assert recorder.removes == [(1, 0)]
        assert predictor.lfst_occupancy() == 0

    def test_stale_exec_removal_is_noop_after_displacement(self, setup):
        predictor, _, recorder = setup
        predictor.train(3, 5)
        slot = predictor.store_mapped(5, inner_id=1, seq=0)
        predictor.store_mapped(5, inner_id=2, seq=1)  # displaces id 1
        predictor.store_address_computed(slot, inner_id=1)
        # id 1 was already removed by displacement; the entry is id 2's.
        assert recorder.removes == [(1, 0)]
        assert predictor.load_mapped(3) == 2

    def test_exec_removal_with_no_slot_is_noop(self, setup):
        predictor, _, recorder = setup
        predictor.store_address_computed(None, inner_id=1)
        assert recorder.removes == []


class TestInjection:
    def test_suppressed_exec_removal_leaks(self, setup):
        predictor, fabric, recorder = setup
        predictor.train(3, 5)
        slot = predictor.store_mapped(5, inner_id=1, seq=0)
        fabric.arm(MDPSignal.LFST_REMOVE_EXEC, 0)
        predictor.store_address_computed(slot, inner_id=1)
        assert recorder.removes == []
        assert predictor.lfst_occupancy() == 1  # the stale entry lingers

    def test_suppressed_displacement_removal_unaccounted(self, setup):
        predictor, fabric, recorder = setup
        predictor.train(3, 5)
        predictor.store_mapped(5, inner_id=1, seq=0)
        fabric.arm(MDPSignal.LFST_REMOVE_DISPLACE, 0)
        predictor.store_mapped(5, inner_id=2, seq=1)
        # id 1 vanished without a removal event: in/out XOR now disagree.
        assert recorder.inserts == [(1, 0), (2, 1)]
        assert recorder.removes == []

    def test_suppressed_insert(self, setup):
        predictor, fabric, recorder = setup
        predictor.train(3, 5)
        fabric.arm(MDPSignal.LFST_INSERT, 0)
        predictor.store_mapped(5, inner_id=1, seq=0)
        assert recorder.inserts == []
        assert predictor.load_mapped(3) is None
