"""Tests for the IDLD checker: no false positives, instant detection."""

import pytest

from repro.bugs.classify import timeout_budget
from repro.core import CoreConfig, OoOCore, SimulationError
from repro.core.rrs.signals import ArrayName, SignalFabric, SignalKind
from repro.idld import IDLDChecker
from repro.workloads import WORKLOADS
from repro.workloads.generator import random_program


def run_with_bug(program, array, kind, from_cycle, config=None, max_cycles=60_000):
    fabric = SignalFabric()
    armed = fabric.arm_suppression(array, kind, from_cycle)
    checker = IDLDChecker()
    core = OoOCore(program, config=config, observers=[checker], fabric=fabric)
    try:
        core.run(max_cycles=max_cycles)
    except SimulationError:
        pass
    return checker, armed


class TestNoFalsePositives:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_every_workload_golden_is_clean(self, name, suite):
        checker = IDLDChecker()
        core = OoOCore(suite[name], observers=[checker])
        core.run()
        assert not checker.detected, checker.violations[:3]

    def test_fuzzed_goldens_are_clean(self):
        for seed in range(8):
            program = random_program(seed + 300)
            checker = IDLDChecker()
            OoOCore(program, observers=[checker]).run()
            assert not checker.detected


PRIMARY_SIGNALS = [
    (ArrayName.FL, SignalKind.READ_ENABLE),
    (ArrayName.FL, SignalKind.WRITE_ENABLE),
    (ArrayName.ROB, SignalKind.READ_ENABLE),
    (ArrayName.ROB, SignalKind.WRITE_ENABLE),
    (ArrayName.RAT, SignalKind.WRITE_ENABLE),
]


class TestDetection:
    @pytest.mark.parametrize("array,kind", PRIMARY_SIGNALS)
    @pytest.mark.parametrize("cycle", [30, 150, 400])
    def test_primary_signal_suppressions_detected(self, suite, array, kind, cycle):
        checker, armed = run_with_bug(suite["bitcount"], array, kind, cycle)
        if not armed.fired:
            pytest.skip("injection window missed the run")
        assert checker.detected

    @pytest.mark.parametrize("array,kind", PRIMARY_SIGNALS)
    def test_detection_never_precedes_activation(self, suite, array, kind):
        checker, armed = run_with_bug(suite["qsort"], array, kind, 100)
        if not armed.fired or not checker.detected:
            pytest.skip("nothing to compare")
        assert checker.first_detection_cycle >= armed.fired_cycle

    def test_detection_is_instant_outside_recovery(self, suite):
        """A RAT write dropped during normal rename flags the same cycle."""
        checker, armed = run_with_bug(
            suite["sha"], ArrayName.RAT, SignalKind.WRITE_ENABLE, 50
        )
        assert armed.fired and checker.detected
        assert checker.first_detection_cycle - armed.fired_cycle <= 1

    def test_corruption_detected(self, suite):
        fabric = SignalFabric()
        armed = fabric.arm_corruption(100, xor_mask=0b11)
        checker = IDLDChecker()
        core = OoOCore(suite["crc32"], observers=[checker], fabric=fabric)
        try:
            core.run(max_cycles=60_000)
        except SimulationError:
            pass
        assert armed.fired and checker.detected

    def test_alarm_latches(self, suite):
        checker, armed = run_with_bug(
            suite["bitcount"], ArrayName.FL, SignalKind.WRITE_ENABLE, 50
        )
        assert armed.fired
        # The syndrome stays nonzero to the end of the run, and the alarm
        # keeps exactly its first record.
        assert checker.syndrome != 0
        assert len(checker.violations) == 1
        assert checker.violations[0].cycle == checker.first_detection_cycle


class TestZeroIdCoverage:
    def test_leak_of_pdst_zero_detected(self):
        """Suppress the FL write that reclaims PdstID 0 specifically.

        Without the +1-bit extension the XOR of a zero id is invisible
        (Section V.D); this test pins the fix. PdstID 0 is the power-on
        mapping of r0, so rewriting r0 twice sends id 0 through the ROB
        and back to the FL -- the second rewrite's commit reclaims it.
        """
        from repro.isa.program import ProgramBuilder

        b = ProgramBuilder("zeroid")
        b.li(0, 1)        # evicts pdst 0 into the ROB; commit reclaims it
        for _ in range(8):
            b.nop()
        b.li(0, 2)
        b.out(0)
        b.halt()
        program = b.build()

        # Find the cycle at which id 0 is reclaimed, then suppress it.
        detected = False
        for cycle in range(1, 30):
            fabric = SignalFabric()
            armed = fabric.arm_suppression(
                ArrayName.FL, SignalKind.WRITE_ENABLE, cycle
            )
            checker = IDLDChecker()
            core = OoOCore(program, observers=[checker], fabric=fabric)
            core.run(max_cycles=500)
            census = core.rrs_id_census()
            if armed.fired and 0 not in census:
                # id 0 leaked -- IDLD must have seen it.
                assert checker.detected
                detected = True
        assert detected, "no injection leaked PdstID 0; test setup is stale"


class TestChickenBit:
    def test_disabled_checker_stays_silent(self, suite):
        fabric = SignalFabric()
        fabric.arm_suppression(ArrayName.RAT, SignalKind.WRITE_ENABLE, 50)
        checker = IDLDChecker(enabled=False)
        core = OoOCore(suite["bitcount"], observers=[checker], fabric=fabric)
        try:
            core.run(max_cycles=20_000)
        except SimulationError:
            pass
        assert not checker.detected

    def test_disabled_checker_still_tracks_state(self, suite):
        checker = IDLDChecker(enabled=False)
        core = OoOCore(suite["sha"], observers=[checker])
        core.run()
        # State tracked, invariant holds, but no check was recorded.
        assert checker.syndrome == 0
        assert not checker.violations


class TestRecoveryHandling:
    def test_checks_suspended_but_state_coherent_across_flushes(self, suite):
        """dijkstra is flush-heavy; the invariant must hold at every
        post-recovery boundary."""
        checker = IDLDChecker()
        core = OoOCore(suite["dijkstra"], observers=[checker])
        result = core.run()
        assert result.stats["flushes"] > 50
        assert not checker.detected

    def test_non_power_of_two_register_count(self):
        """The expected constant is nonzero for P=99 and still works."""
        program = random_program(7)
        config = CoreConfig(num_physical_regs=99, rob_entries=60,
                            checkpoint_interval=16)
        checker = IDLDChecker()
        core = OoOCore(program, config=config, observers=[checker])
        core.run()
        assert checker._expected != 0
        assert not checker.detected
