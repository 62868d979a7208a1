"""Cross-variant tests for the pluggable microarchitectural policies.

Every (free-list discipline x recovery strategy) variant must execute
programs correctly, keep the PdstID census clean, stay invisible to the
IDLD invariant on clean runs, and remain *visible* to IDLD under the
armed leak/duplication bug models. Warm-start snapshots taken mid-walk
must round-trip bit-identically on every strategy.
"""

import pytest

from repro.core import CoreConfig, OoOCore
from repro.core.config import FREE_LIST_DISCIPLINES, RECOVERY_STRATEGIES
from repro.core.recovery import make_recovery_strategy
from repro.core.rrs.free_list import (
    FifoFreeList,
    StackFreeList,
    make_free_list,
)
from repro.core.rrs.signals import ArrayName, SignalFabric, SignalKind
from repro.idld import IDLDChecker
from repro.isa.semantics import reference_run

from tests.support import RecordingObserver
from tests.test_recovery_flows import mispredicting_program

VARIANTS = [
    (discipline, recovery)
    for discipline in FREE_LIST_DISCIPLINES
    for recovery in RECOVERY_STRATEGIES
]


def variant_config(discipline, recovery, **overrides):
    return CoreConfig(
        free_list_discipline=discipline,
        recovery_strategy=recovery,
        **overrides,
    )


class TestVariantCorrectness:
    @pytest.mark.parametrize("discipline,recovery", VARIANTS)
    def test_mispredict_storm_is_architecturally_clean(
        self, discipline, recovery
    ):
        program = mispredicting_program()
        expected, _, _ = reference_run(program)
        checker = IDLDChecker()
        config = variant_config(discipline, recovery)
        core = OoOCore(program, config=config, observers=[checker])
        result = core.run()
        assert result.halted
        assert result.output == expected
        assert result.stats["flushes"] > 0
        assert core.census_is_clean()
        assert checker.violations == []

    @pytest.mark.parametrize("discipline,recovery", VARIANTS)
    def test_commit_stream_matches_checkpoint_reference(
        self, discipline, recovery
    ):
        """Recovery policy changes *when* instructions commit, never
        *which* instructions commit."""
        program = mispredicting_program()
        reference = OoOCore(program).run()
        config = variant_config(discipline, recovery)
        result = OoOCore(program, config=config).run()
        assert result.commit_pcs == reference.commit_pcs

    @pytest.mark.parametrize("discipline,recovery", VARIANTS)
    def test_zero_idiom_elimination_stays_clean(self, discipline, recovery):
        """The zero-register rename special cases interact with the walk
        unwind; the invariant must still balance."""
        program = mispredicting_program()
        expected, _, _ = reference_run(program)
        checker = IDLDChecker()
        config = variant_config(
            discipline, recovery, zero_idiom_elimination=True
        )
        core = OoOCore(program, config=config, observers=[checker])
        result = core.run()
        assert result.output == expected
        assert core.census_is_clean()
        assert checker.violations == []

    @pytest.mark.parametrize("recovery", ["rob-walk", "checkpoint-free"])
    def test_walk_strategies_never_restore_a_checkpoint(self, recovery):
        observer = RecordingObserver()
        config = variant_config("fifo", recovery)
        core = OoOCore(
            mispredicting_program(), config=config, observers=[observer]
        )
        result = core.run()
        assert result.stats["flushes"] > 0
        assert observer.of_kind("checkpoint_restored") == []

    @pytest.mark.parametrize("discipline,recovery", VARIANTS)
    def test_narrow_walk_width_still_correct(self, discipline, recovery):
        program = mispredicting_program()
        expected, _, _ = reference_run(program)
        config = variant_config(discipline, recovery, recovery_walk_width=1)
        result = OoOCore(program, config=config).run()
        assert result.output == expected


class TestVariantDetection:
    """Armed leak/dup bugs must stay IDLD-visible on every variant."""

    def _run_armed(self, program, discipline, recovery, kind):
        fabric = SignalFabric()
        armed = fabric.arm_suppression(ArrayName.FL, kind, 100)
        checker = IDLDChecker()
        config = variant_config(discipline, recovery)
        core = OoOCore(
            program, config=config, observers=[checker], fabric=fabric
        )
        try:
            core.run(max_cycles=60_000)
        except Exception:
            pass  # downstream crash/assert outcomes are fine; IDLD fires first
        return armed, checker

    @pytest.mark.parametrize("discipline,recovery", VARIANTS)
    def test_leakage_detected(self, suite, discipline, recovery):
        armed, checker = self._run_armed(
            suite["bitcount"], discipline, recovery, SignalKind.WRITE_ENABLE
        )
        assert armed.fired
        assert checker.detected
        assert checker.first_detection_cycle >= 100

    @pytest.mark.parametrize("discipline,recovery", VARIANTS)
    def test_duplication_detected(self, suite, discipline, recovery):
        armed, checker = self._run_armed(
            suite["bitcount"], discipline, recovery, SignalKind.READ_ENABLE
        )
        assert armed.fired
        assert checker.detected


class TestWarmStartMidRecovery:
    @pytest.mark.parametrize("discipline,recovery", VARIANTS)
    def test_snapshot_inside_recovery_round_trips(self, discipline, recovery):
        """save_state taken while a walk/restore is in flight restores to
        a core that finishes bit-identically to the uninterrupted run."""
        program = mispredicting_program()
        config = variant_config(
            discipline, recovery, recovery_walk_width=1
        )
        core = OoOCore(program, config=config)
        while core.recovery is None:
            core.step()
            assert core.cycle < 50_000, "program never entered recovery"
        snapshot = core.save_state()
        reference = core.run()

        resumed = OoOCore(program, config=config)
        resumed.load_state(snapshot)
        assert resumed.recovery is not None
        result = resumed.run()
        assert result == reference

    @pytest.mark.parametrize("recovery", RECOVERY_STRATEGIES)
    def test_save_recovery_is_plain_data(self, recovery):
        """Recovery snapshots must be JSON-ish containers (tuples/ints),
        never live object references."""
        config = variant_config("fifo", recovery)
        core = OoOCore(mispredicting_program(), config=config)
        while core.recovery is None:
            core.step()
        saved = core.recovery_strategy.save_recovery()

        def flat(value):
            if isinstance(value, (tuple, list)):
                return all(flat(v) for v in value)
            return value is None or isinstance(value, (int, bool))

        assert flat(saved)


class TestStackFreeList:
    def _make(self, fabric=None, parity=None):
        fabric = fabric or SignalFabric()
        fl = StackFreeList(8, fabric, observers=(), parity=parity)
        fl.reset([10, 11, 12, 13])
        return fl, fabric

    def test_lifo_delivery_order(self):
        fl, _ = self._make()
        assert [fl.pop() for _ in range(4)] == [13, 12, 11, 10]
        assert fl.empty

    def test_push_then_pop_reuses_most_recent(self):
        fl, _ = self._make()
        fl.pop()          # 13
        fl.push(42)
        assert fl.pop() == 42

    def test_suppressed_read_redelivers_duplicate(self):
        fl, fabric = self._make()
        armed = fabric.arm_suppression(
            ArrayName.FL, SignalKind.READ_ENABLE, 5
        )
        fabric.cycle = 5
        first = fl.pop()   # suppressed: pointer frozen, 13 stays live
        second = fl.pop()  # single-shot bug done: delivers 13 *again*
        assert armed.fired
        assert first == second == 13
        assert fl.count == 3

    def test_suppressed_write_drops_reclaim(self):
        fl, fabric = self._make()
        fl.pop()
        fabric.arm_suppression(ArrayName.FL, SignalKind.WRITE_ENABLE, 5)
        fabric.cycle = 5
        fl.push(13)
        assert fl.count == 3  # 13 leaked
        assert 13 not in fl.contents()

    def test_contents_in_delivery_order(self):
        fl, _ = self._make()
        assert fl.contents() == [13, 12, 11, 10]

    def test_corrupt_stored_is_top_relative(self):
        fl, _ = self._make()
        corrupted = fl.corrupt_stored(0, 0b1)  # next pop = 13
        assert corrupted == 13 ^ 0b1
        assert fl.pop() == corrupted

    def test_corrupt_stored_rejects_dead_slots(self):
        fl, _ = self._make()
        with pytest.raises(ValueError):
            fl.corrupt_stored(4, 1)
        with pytest.raises(ValueError):
            fl.corrupt_stored(0, 0)

    def test_save_load_round_trip_keeps_stale_storage(self):
        fl, fabric = self._make()
        fl.pop()
        state = fl.save_state()
        other = StackFreeList(8, fabric, observers=())
        other.load_state(state)
        assert other.contents() == fl.contents()
        # Stale slot above the pointer survives too (standard-cell memory).
        assert other.save_state() == state


class TestFactories:
    def test_make_free_list_by_discipline(self):
        fabric = SignalFabric()
        assert isinstance(
            make_free_list("fifo", 8, fabric, ()), FifoFreeList
        )
        assert isinstance(
            make_free_list("stack", 8, fabric, ()), StackFreeList
        )

    def test_make_free_list_unknown(self):
        with pytest.raises(ValueError, match="unknown free list discipline"):
            make_free_list("lifo", 8, SignalFabric(), ())

    def test_make_recovery_strategy_unknown(self):
        with pytest.raises(ValueError, match="unknown recovery strategy"):
            make_recovery_strategy("walk", None)

    def test_core_exposes_selected_policies(self):
        config = variant_config("stack", "rob-walk")
        core = OoOCore(mispredicting_program(), config=config)
        assert core.free_list.discipline == "stack"
        assert core.recovery_strategy.name == "rob-walk"
