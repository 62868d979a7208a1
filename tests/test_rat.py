"""Unit tests for the Register Alias Table."""

import pytest

from repro.core.rrs.rat import RegisterAliasTable
from repro.core.rrs.signals import ArrayName, SignalFabric, SignalKind

from tests.support import RecordingObserver


@pytest.fixture()
def setup():
    fabric = SignalFabric()
    observer = RecordingObserver()
    rat = RegisterAliasTable(8, 128, fabric, [observer])
    rat.reset(list(range(8)))
    return rat, fabric, observer


class TestMapping:
    def test_initial_identity(self, setup):
        rat, _, _ = setup
        assert [rat.read(i) for i in range(8)] == list(range(8))

    def test_write_updates_mapping(self, setup):
        rat, _, _ = setup
        rat.write(3, 40)
        assert rat.read(3) == 40

    def test_write_returns_driven_value(self, setup):
        rat, _, _ = setup
        assert rat.write(3, 40) == 40

    def test_write_emits_old_and_new(self, setup):
        rat, _, obs = setup
        rat.write(3, 40)
        assert obs.of_kind("rat_write") == [("rat_write", 3, 3, 40)]

    def test_snapshot_is_a_copy(self, setup):
        rat, _, _ = setup
        snap = rat.snapshot()
        rat.write(0, 99)
        assert snap[0] == 0

    def test_reset_requires_full_mapping(self):
        rat = RegisterAliasTable(8, 128, SignalFabric(), [])
        with pytest.raises(ValueError):
            rat.reset([1, 2, 3])


class TestRecovery:
    def test_restore_replaces_table(self, setup):
        rat, _, _ = setup
        rat.write(0, 50)
        assert rat.restore(list(range(8)))
        assert rat.read(0) == 0

    def test_suppressed_recovery_keeps_table(self, setup):
        rat, fabric, _ = setup
        rat.write(0, 50)
        fabric.arm_suppression(ArrayName.RAT, SignalKind.RECOVERY, 0)
        assert not rat.restore(list(range(8)))
        assert rat.read(0) == 50


class TestWriteSuppression:
    def test_suppressed_write_keeps_old_mapping(self, setup):
        rat, fabric, obs = setup
        fabric.arm_suppression(ArrayName.RAT, SignalKind.WRITE_ENABLE, 0)
        driven = rat.write(3, 40)
        assert driven == 40        # the bus still carried the value
        assert rat.read(3) == 3    # but the array kept the old mapping
        assert obs.of_kind("rat_write") == []

    def test_suppression_one_shot(self, setup):
        rat, fabric, _ = setup
        fabric.arm_suppression(ArrayName.RAT, SignalKind.WRITE_ENABLE, 0)
        rat.write(3, 40)
        rat.write(3, 41)
        assert rat.read(3) == 41


class TestPdstCorruption:
    def test_corruption_changes_written_value(self, setup):
        rat, fabric, _ = setup
        fabric.arm_corruption(0, xor_mask=0b101)
        driven = rat.write(2, 40)
        assert driven == 40 ^ 0b101
        assert rat.read(2) == 40 ^ 0b101

    def test_corruption_event_carries_corrupted_value(self, setup):
        rat, fabric, obs = setup
        fabric.arm_corruption(0, xor_mask=1)
        rat.write(2, 40)
        assert obs.of_kind("rat_write") == [("rat_write", 2, 2, 41)]

    def test_corruption_one_shot(self, setup):
        rat, fabric, _ = setup
        fabric.arm_corruption(0, xor_mask=1)
        rat.write(2, 40)
        rat.write(3, 50)
        assert rat.read(3) == 50

    def test_identifier_past_the_register_count_is_written_and_recorded(
        self,
    ):
        """At 48 registers a 6-bit mask can name registers 48..63, which
        do not exist. The write lands and every tap sees it, like any
        corrupted write, so IDLD can check it in this cycle; the fabric
        records the identifier, and the core ends the run at the cycle's
        end (tests/test_config_extremes.py)."""
        fabric = SignalFabric()
        observer = RecordingObserver()
        rat = RegisterAliasTable(8, 48, fabric, [observer])
        rat.reset(list(range(8)))
        fabric.arm_corruption(0, xor_mask=0b100000)
        assert rat.write(2, 24) == 56
        assert rat.read(2) == 56
        assert observer.of_kind("rat_write") == [("rat_write", 2, 2, 56)]
        assert fabric.undefined_pdst == 56

    def test_identifier_within_the_register_count_is_written(self):
        fabric = SignalFabric()
        rat = RegisterAliasTable(8, 48, fabric, [])
        rat.reset(list(range(8)))
        fabric.arm_corruption(0, xor_mask=0b100000)
        assert rat.write(2, 15) == 47
        assert rat.read(2) == 47
        assert fabric.undefined_pdst is None

    def test_zero_mask_rejected(self, setup):
        _, fabric, _ = setup
        with pytest.raises(ValueError):
            fabric.arm_corruption(0, xor_mask=0)
