"""Tests for at-rest faults and the parity companion scheme (Sec V.D)."""

import random

import pytest

from repro.bugs.faults import (
    inject_at_rest_fault,
    parity_detected,
    run_with_at_rest_fault,
)
from repro.core import OoOCore
from repro.core.config import CoreConfig
from repro.core.errors import DeadlockError
from repro.idld import IDLDChecker
from repro.idld.parity import ParityStore, parity
from repro.workloads import WORKLOADS


class TestParityPrimitive:
    def test_parity_function(self):
        assert parity(0) == 0
        assert parity(1) == 1
        assert parity(0b11) == 0
        assert parity(0b111) == 1

    def test_write_then_clean_read(self):
        store = ParityStore("X")
        store.on_write(3, 42)
        store.on_read(3, 42, cycle=5)
        assert not store.detected

    def test_single_bit_flip_detected(self):
        store = ParityStore("X")
        store.on_write(3, 42)
        store.on_read(3, 42 ^ 1, cycle=5)
        assert store.detected
        alarm = store.alarms[0]
        assert (alarm.array, alarm.location, alarm.cycle) == ("X", 3, 5)

    def test_double_bit_flip_missed(self):
        """Single parity cannot see even-weight flips (ECC territory)."""
        store = ParityStore("X")
        store.on_write(3, 42)
        store.on_read(3, 42 ^ 0b11, cycle=5)
        assert not store.detected

    def test_unknown_location_ignored(self):
        store = ParityStore("X")
        store.on_read(9, 42, cycle=5)
        assert not store.detected

    def test_chicken_bit(self):
        store = ParityStore("X", enabled=False)
        store.on_write(3, 42)
        store.on_read(3, 43, cycle=5)
        assert not store.detected


class TestGoldenWithParity:
    @pytest.mark.parametrize("name", ["bitcount", "sha", "dijkstra"])
    def test_no_false_positives(self, name, suite):
        core = OoOCore(suite[name], parity_protect=True)
        result = core.run()
        assert result.halted
        assert not parity_detected(core)

    def test_parity_off_by_default(self, suite):
        core = OoOCore(suite["sha"])
        assert core.parity == {}


class TestAtRestFaults:
    def test_corrupt_stored_validations(self, suite):
        core = OoOCore(suite["sha"])
        with pytest.raises(ValueError):
            core.free_list.corrupt_stored(0, 0)
        with pytest.raises(ValueError):
            core.free_list.corrupt_stored(10_000, 1)
        with pytest.raises(ValueError):
            core.rat.corrupt_stored(0, 0)
        with pytest.raises(ValueError):
            core.rob.corrupt_stored(0, 1)  # empty ROB

    def test_injector_targets_live_state(self, suite):
        core = OoOCore(suite["bitcount"])
        for _ in range(30):
            core.step()
        fault = inject_at_rest_fault(core, random.Random(3))
        assert fault is not None
        assert fault.array in ("FL", "RAT", "ROB")
        assert not core.census_is_clean()  # content genuinely corrupted

    def test_idld_is_blind_to_at_rest_corruption(self, suite):
        """The Section V.D scope boundary, observed: the XOR code pairs
        every port fold with the (corrupted) bus value, so at-rest flips
        never unbalance it -- that is exactly why the paper defers them to
        ECC/parity."""
        rng = random.Random(11)
        blind = 0
        fired = 0
        for _ in range(10):
            idld = IDLDChecker()
            core = OoOCore(suite["bitcount"], observers=[idld])
            fault, _, _ = run_with_at_rest_fault(
                core, rng.randint(10, 800), rng, max_cycles=6_000
            )
            if fault is None:
                continue
            fired += 1
            blind += not idld.detected
        assert fired >= 8
        assert blind == fired

    def test_parity_catches_flowing_corruptions(self, suite):
        """Parity alarms whenever a corrupted location is actually read."""
        rng = random.Random(7)
        caught = 0
        fired = 0
        for _ in range(15):
            core = OoOCore(suite["bitcount"], parity_protect=True)
            fault, _, _ = run_with_at_rest_fault(
                core, rng.randint(10, 800), rng, max_cycles=6_000
            )
            if fault is None:
                continue
            fired += 1
            caught += parity_detected(core)
        assert fired >= 10
        # Most single-bit upsets reach a read port before the run ends.
        assert caught / fired >= 0.4

    def test_parity_alarm_carries_location(self, suite):
        core = OoOCore(suite["bitcount"], parity_protect=True)
        for _ in range(30):
            core.step()
        value = core.free_list.corrupt_stored(0, 1)
        for _ in range(200):
            core.step()
            if core.parity["FL"].detected:
                break
        alarm = core.parity["FL"].alarms[0]
        assert alarm.array == "FL"
        assert alarm.value == value

    def test_an_upset_that_wedges_the_core_ends_in_a_deadlock(self):
        """The runner steps through ``run_cycles``, whose watchdog ends a
        run that makes no progress: this upset wedges bitcount, which
        would otherwise idle to its cycle budget and return no error."""
        rng = random.Random(28)
        core = OoOCore(
            WORKLOADS["bitcount"](scale=0.5),
            config=CoreConfig(deadlock_cycles=300),
            parity_protect=True,
        )
        fault, result, error = run_with_at_rest_fault(
            core, rng.randint(10, 600), rng, max_cycles=5_000
        )
        assert fault is not None
        assert isinstance(error, DeadlockError) and error.cycle == 714
        assert not result.halted
