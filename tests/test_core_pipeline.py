"""Integration tests for the cycle-level core."""

import pytest

from repro.bugs.campaign import run_injection
from repro.bugs.snapshot import SnapshotProvider, make_detectors
from repro.core import CoreConfig, DeadlockError, MemoryFault, OoOCore
from repro.core.cpu import disable_stage_profiling, enable_stage_profiling
from repro.core.errors import SimulatorAssertion
from repro.core.rrs.ports import RRSObserver
from repro.core.rrs.signals import ArrayName, SignalFabric, SignalKind
from repro.exec.tasks import execute_task, generate_tasks
from repro.idld.checker import IDLDChecker
from repro.isa.program import ProgramBuilder
from repro.isa.semantics import reference_run
from repro.workloads import WORKLOADS

from tests.support import RecordingObserver


def simple_loop(n=30, name="loop"):
    b = ProgramBuilder(name)
    b.li(31, 0)
    b.li(1, 0)
    b.li(2, n)
    b.li(3, 0)
    b.label("loop")
    b.mul(4, 1, 1)
    b.add(3, 3, 4)
    b.addi(1, 1, 1)
    b.blt(1, 2, "loop")
    b.out(3)
    b.halt()
    return b.build()


def memory_program():
    b = ProgramBuilder("mem")
    b.li(31, 0)
    b.li(1, 7)
    b.st(31, 1, 100)      # mem[100] = 7
    b.ld(2, 31, 100)      # forwarded from the store queue
    b.addi(2, 2, 1)
    b.st(31, 2, 101)
    b.ld(3, 31, 101)
    b.out(3)
    b.halt()
    return b.build()


class TestArchitecturalCorrectness:
    def test_matches_reference(self):
        program = simple_loop()
        expected, _, _ = reference_run(program)
        result = OoOCore(program).run()
        assert result.output == expected and result.halted

    def test_store_load_forwarding(self):
        program = memory_program()
        result = OoOCore(program).run()
        assert result.output == [8]

    def test_commit_trace_in_program_order(self):
        program = simple_loop(5)
        result = OoOCore(program).run()
        expected_pcs = []
        pc = 0
        # Recompute the dynamic pc stream architecturally.
        out, _, _ = reference_run(program)
        assert result.commit_pcs[0] == 0
        assert all(
            c1 <= c2
            for c1, c2 in zip(result.commit_cycles, result.commit_cycles[1:])
        )

    def test_determinism(self):
        program = simple_loop()
        a = OoOCore(program).run()
        b = OoOCore(program).run()
        assert a.output == b.output and a.cycles == b.cycles
        assert a.commit_cycles == b.commit_cycles

    @pytest.mark.parametrize("width", [1, 2, 4, 6, 8])
    def test_widths_agree_architecturally(self, width):
        program = simple_loop(20, name=f"w{width}")
        expected, _, _ = reference_run(program)
        config = CoreConfig(width=width)
        result = OoOCore(program, config=config).run()
        assert result.output == expected

    def test_wider_is_not_slower(self):
        program = simple_loop(40)
        narrow = OoOCore(program, config=CoreConfig(width=1)).run()
        wide = OoOCore(program, config=CoreConfig(width=8)).run()
        assert wide.cycles <= narrow.cycles

    def test_superscalar_actually_overlaps(self):
        # Long enough for the predictor to warm up past the early flushes.
        program = simple_loop(300)
        result = OoOCore(program, config=CoreConfig(width=4)).run()
        assert result.committed / result.cycles > 1.0  # IPC above 1


class TestSpeculation:
    def test_mispredicts_recovered(self):
        program = simple_loop(50)
        core = OoOCore(program)
        result = core.run()
        assert result.stats["mispredicts"] >= 1
        assert result.stats["flushes"] >= 1
        expected, _, _ = reference_run(program)
        assert result.output == expected

    def test_census_clean_after_halt(self):
        core = OoOCore(simple_loop(50))
        core.run()
        assert core.census_is_clean()

    def test_recovery_events_balanced(self):
        observer = RecordingObserver()
        core = OoOCore(simple_loop(50), observers=[observer])
        core.run()
        begins = observer.of_kind("recovery_begin")
        ends = observer.of_kind("recovery_end")
        assert len(begins) == len(ends) >= 1

    def test_checkpoints_taken(self):
        result = OoOCore(simple_loop(80)).run()
        assert result.stats["checkpoints"] >= 1


class TestStallsAndLimits:
    def test_tiny_rob_still_correct(self):
        program = simple_loop(20)
        config = CoreConfig(rob_entries=8, checkpoint_interval=4,
                            num_physical_regs=48, issue_queue_entries=8)
        expected, _, _ = reference_run(program)
        result = OoOCore(program, config=config).run()
        assert result.output == expected

    def test_scarce_physical_registers_still_correct(self):
        program = simple_loop(20)
        config = CoreConfig(num_physical_regs=40, rob_entries=16,
                            checkpoint_interval=8)
        expected, _, _ = reference_run(program)
        result = OoOCore(program, config=config).run()
        assert result.output == expected

    def test_max_cycles_truncates(self):
        result = OoOCore(simple_loop(1000)).run(max_cycles=50)
        assert not result.halted and result.cycles == 50

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CoreConfig(num_physical_regs=16)  # fewer than logical registers
        with pytest.raises(ValueError):
            CoreConfig(predictor_kind="oracle")

    def test_deadlock_detected_when_wedged(self):
        # Suppressing the ROB recovery signal leaves squashed entries that
        # never complete; the pipeline wedges and the detector fires.
        program = simple_loop(200)
        fabric = SignalFabric()
        fabric.arm_suppression(ArrayName.ROB, SignalKind.RECOVERY, 1)
        config = CoreConfig(deadlock_cycles=500)
        core = OoOCore(program, config=config, fabric=fabric)
        with pytest.raises(DeadlockError):
            core.run(max_cycles=100_000)


class TestMemoryFaults:
    def test_wild_committed_store_faults(self):
        b = ProgramBuilder("wild")
        b.li(1, 1 << 30)
        b.li(2, 5)
        b.st(1, 2, 0)
        b.halt()
        with pytest.raises(MemoryFault):
            OoOCore(b.build()).run()

    def test_wild_committed_load_faults(self):
        b = ProgramBuilder("wildload")
        b.li(1, 1 << 30)
        b.ld(2, 1, 0)
        b.out(2)
        b.halt()
        with pytest.raises(MemoryFault):
            OoOCore(b.build()).run()

    def test_wrong_path_wild_access_is_harmless(self):
        # The load at the taken target is only reached on the wrong path
        # (the branch is always taken past it after training -- first
        # encounter may speculate into it).
        b = ProgramBuilder("wrongpath")
        b.li(31, 0)
        b.li(1, 1 << 30)
        b.li(2, 0)
        b.label("top")
        b.addi(2, 2, 1)
        b.li(3, 50)
        b.blt(2, 3, "top")     # taken 49 times; predictor warms up
        b.jmp("end")
        b.ld(4, 1, 0)          # unreachable architecturally
        b.label("end")
        b.out(2)
        b.halt()
        result = OoOCore(b.build()).run()
        assert result.output == [50]


class TestHaltSemantics:
    def test_nothing_commits_after_halt(self):
        program = simple_loop(5)
        result = OoOCore(program).run()
        halt_pc = len(program.instructions) - 1
        assert result.commit_pcs[-1] == halt_pc
        assert result.commit_pcs.count(halt_pc) == 1

    def test_out_values_committed_in_order(self):
        b = ProgramBuilder("outs")
        for i in range(6):
            b.li(1, i * 10)
            b.out(1)
        b.halt()
        result = OoOCore(b.build()).run()
        assert result.output == [0, 10, 20, 30, 40, 50]


class _CycleEnds(RRSObserver):
    """Records every cycle end, fast-forwarded spans included."""

    def __init__(self):
        self.cycles = []

    def cycle_end(self, cycle):
        self.cycles.append(cycle)

    def fast_forward(self, start_cycle, end_cycle, pipeline_empty):
        self.cycles.extend(range(start_cycle + 1, end_cycle + 1))


class TestUndefinedIdentifier:
    """At 48 registers PdstIDs 48..63 exist in the encoding but name no
    register. A corruption that drives one ends the run as *Assert*."""

    def test_run_ends_at_the_cycle_end_after_idld_checks(self):
        config = CoreConfig(
            num_physical_regs=48, rob_entries=32, checkpoint_interval=8
        )
        fabric = SignalFabric()
        armed = fabric.arm_corruption(5, xor_mask=0b010000)
        idld = IDLDChecker()
        ends = _CycleEnds()
        core = OoOCore(
            simple_loop(), config=config, observers=[idld, ends],
            fabric=fabric,
        )
        with pytest.raises(
            SimulatorAssertion, match="PdstID 55, outside 0..47"
        ) as raised:
            core.run()
        cycle = armed.fired_cycle
        assert armed.corrupted == 55
        assert raised.value.cycle == core.cycle == cycle
        # The cycle ran to its end: every cycle-end hook saw it, and IDLD
        # detected the corruption in its own cycle.
        assert ends.cycles[-1] == cycle
        assert idld.first_detection_cycle == cycle


class TestStageProfiler:
    """A profiled core runs the very same ``step()`` as an unprofiled one,
    so its results are identical and only the attribution differs."""

    def test_profiled_core_runs_the_same_step(self):
        prog = WORKLOADS["basicmath"](scale=0.4)
        plain = OoOCore(prog, observers=list(make_detectors())).run()
        profile = enable_stage_profiling()
        try:
            core = OoOCore(prog, observers=list(make_detectors()))
            profiled = core.run()
        finally:
            disable_stage_profiling()
        assert profiled == plain
        assert profile["cycles"] == profiled.cycles - core.ff_cycles_skipped
        assert core.ff_cycles_skipped > 0
        buckets = [
            "fetch", "rename", "issue", "execute", "commit", "flush",
            "recovery", "observer", "fast_forward",
        ]
        for bucket in buckets:
            assert profile[bucket] > 0, bucket
        # Cores built once profiling is off keep the plain methods.
        assert "step" not in vars(OoOCore(prog))

    def test_profiled_snapshot_driven_injections_match_unprofiled(
        self, monkeypatch
    ):
        """Restores, detaching latched detectors and convergence all run
        on profiled cores too, and change no result."""
        prog = WORKLOADS["sha"](scale=0.25)
        provider = SnapshotProvider(prog, 25)
        golden = provider.golden
        plain = [
            execute_task(task, prog, golden, snapshots=provider)
            for task in generate_tasks(["sha"], 2, seed=1)
        ]
        detached = []
        detach = OoOCore.detach

        def counting_detach(core, observer):
            detached.append(observer)
            detach(core, observer)

        monkeypatch.setattr(OoOCore, "detach", counting_detach)
        profile = enable_stage_profiling()
        try:
            profiled = [
                run_injection(prog, golden, result.spec, snapshots=provider)
                for result in plain
            ]
        finally:
            disable_stage_profiling()
        assert profiled == plain
        assert all(r.warm_start_cycles_skipped > 0 for r in profiled)
        assert any(r.early_terminated_cycle is not None for r in profiled)
        assert detached
        assert profile["cycles"] > 0 and profile["observer"] > 0
