"""Tests for zero-idiom elimination and its IDLD compatibility (Sec V.E)."""

import pytest

from repro.core import CoreConfig, OoOCore
from repro.core.rrs.signals import ArrayName, SignalFabric, SignalKind
from repro.idld import BitVectorScheme, CounterScheme, IDLDChecker
from repro.isa.program import ProgramBuilder
from repro.isa.semantics import reference_run
from repro.workloads.generator import random_program

ZI_CONFIG = dict(zero_idiom_elimination=True)


def zero_heavy_program(iterations=25):
    """A loop that rewrites registers to zero every iteration."""
    b = ProgramBuilder("zeroheavy")
    b.li(31, 0)
    b.li(1, 0)
    b.li(2, iterations)
    b.li(3, 7)
    b.label("loop")
    b.li(4, 0)           # zero idiom
    b.add(4, 4, 1)
    b.xor(5, 5, 5)       # zero idiom
    b.add(5, 5, 3)
    b.add(3, 4, 5)
    b.sub(6, 6, 6)       # zero idiom
    b.addi(1, 1, 1)
    b.blt(1, 2, "loop")
    b.out(3)
    b.halt()
    return b.build()


class TestCorrectness:
    def test_output_matches_reference(self):
        program = zero_heavy_program()
        expected, _, _ = reference_run(program)
        config = CoreConfig(**ZI_CONFIG)
        result = OoOCore(program, config=config).run()
        assert result.output == expected

    def test_same_output_with_and_without_elimination(self):
        program = zero_heavy_program()
        on = OoOCore(program, config=CoreConfig(**ZI_CONFIG)).run()
        off = OoOCore(program, config=CoreConfig()).run()
        assert on.output == off.output

    def test_elimination_skips_allocations(self):
        """Eliminated idioms pop nothing from the Free List."""
        from tests.support import RecordingObserver

        program = zero_heavy_program()
        pops = {}
        for name, config in (
            ("on", CoreConfig(**ZI_CONFIG)), ("off", CoreConfig())
        ):
            observer = RecordingObserver()
            OoOCore(program, config=config, observers=[observer]).run()
            pops[name] = len(observer.of_kind("fl_read"))
        assert pops["on"] < pops["off"]

    def test_census_clean_with_elimination(self):
        config = CoreConfig(**ZI_CONFIG)
        core = OoOCore(zero_heavy_program(), config=config)
        core.run()
        assert core.census_is_clean()

    @pytest.mark.parametrize("seed", range(8))
    def test_fuzz_with_zero_idioms(self, seed):
        program = random_program(seed + 900, zero_idiom_rate=0.25)
        expected, _, _ = reference_run(program)
        checker = IDLDChecker()
        config = CoreConfig(**ZI_CONFIG)
        core = OoOCore(program, config=config, observers=[checker])
        result = core.run()
        assert result.output == expected
        assert not checker.detected, checker.violations[:2]
        assert core.census_is_clean()

    def test_bv_and_counter_break_under_the_optimization(self):
        """The Section V.E alternatives are *rigid*: their free-count
        expectation (#free == #physical - #logical at quiescence) no longer
        holds once logical registers map to the shared zero register, so
        they false-positive on bug-free runs -- while IDLD adapts through
        the duplicate-marking signal. This is the flexibility argument of
        Section V.E, observed directly."""
        program = zero_heavy_program()
        checker = IDLDChecker()
        bv = BitVectorScheme()
        counter = CounterScheme()
        config = CoreConfig(**ZI_CONFIG)
        core = OoOCore(
            program, config=config, observers=[checker, bv, counter]
        )
        core.run()
        assert not checker.detected       # IDLD: compatible
        assert bv.detected or counter.detected  # unadapted baselines: not

    def test_flush_across_zero_idioms_recovers(self):
        """Mispredicts spanning eliminated renames walk back correctly."""
        program = random_program(424, zero_idiom_rate=0.3, blocks=8)
        expected, _, _ = reference_run(program)
        checker = IDLDChecker()
        config = CoreConfig(**ZI_CONFIG)
        core = OoOCore(program, config=config, observers=[checker])
        result = core.run()
        assert result.stats["flushes"] >= 1
        assert result.output == expected
        assert not checker.detected


class TestIDLDCompatibility:
    def test_golden_never_alarms(self):
        checker = IDLDChecker()
        config = CoreConfig(**ZI_CONFIG)
        core = OoOCore(zero_heavy_program(), config=config, observers=[checker])
        core.run()
        assert not checker.detected

    def test_dup_mark_suppression_detected(self):
        """Section V.E: 'If this signal, due to a bug, is not activated it
        will cause IDLD assertion' -- the untagged shared-id write breaks
        the code immediately."""
        program = zero_heavy_program()
        fabric = SignalFabric()
        armed = fabric.arm_suppression(ArrayName.RAT, SignalKind.DUP_MARK, 10)
        checker = IDLDChecker()
        config = CoreConfig(**ZI_CONFIG)
        core = OoOCore(
            program, config=config, observers=[checker], fabric=fabric
        )
        core.run(max_cycles=10_000)
        assert armed.fired
        assert checker.detected
        assert checker.first_detection_cycle - armed.fired_cycle <= 1

    def test_regular_bugs_still_detected_with_elimination_on(self):
        program = zero_heavy_program()
        fabric = SignalFabric()
        armed = fabric.arm_suppression(
            ArrayName.FL, SignalKind.WRITE_ENABLE, 30
        )
        checker = IDLDChecker()
        config = CoreConfig(**ZI_CONFIG)
        core = OoOCore(
            program, config=config, observers=[checker], fabric=fabric
        )
        core.run(max_cycles=10_000)
        assert armed.fired and checker.detected

    def test_dup_mark_is_an_armable_signal(self):
        fabric = SignalFabric()
        fabric.arm_suppression(ArrayName.RAT, SignalKind.DUP_MARK, 0)
        assert fabric.any_armed

    def test_dup_mark_invalid_on_other_arrays(self):
        fabric = SignalFabric()
        with pytest.raises(ValueError):
            fabric.arm_suppression(ArrayName.FL, SignalKind.DUP_MARK, 0)


class TestConfig:
    def test_zero_pdst_off_by_default(self):
        assert CoreConfig().zero_pdst is None

    def test_zero_pdst_outside_token_set(self):
        config = CoreConfig(**ZI_CONFIG)
        assert config.zero_pdst == config.num_physical_regs

    def test_write_zero_requires_enablement(self):
        from repro.core.rrs.rat import RegisterAliasTable

        rat = RegisterAliasTable(8, 16, SignalFabric(), [])
        rat.reset(list(range(8)))
        with pytest.raises(ValueError):
            rat.write_zero_idiom(0)
