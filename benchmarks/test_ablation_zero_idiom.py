"""Ablation: IDLD compatibility with RRS optimizations (Section V.E).

The paper argues IDLD adapts to renaming optimizations (move / 0-1-idiom
elimination) through the duplicate-marking control signal, and that a bug
in that very signal "will cause IDLD assertion". This bench turns on
zero-idiom elimination and measures:

* golden cleanliness and the allocation-bandwidth benefit,
* instant detection of a suppressed duplicate-mark,
* full primary-model coverage with the optimization enabled,
* the rigidity of the unadapted BV/counter alternatives (false positives).
"""

from repro.core import CoreConfig, OoOCore
from repro.core.rrs.signals import ArrayName, SignalFabric, SignalKind
from repro.exec.engine import run_engine
from repro.idld import BitVectorScheme, CounterScheme, IDLDChecker
from repro.workloads.generator import random_program

from conftest import BENCH_SEED, emit


def zero_program(seed=777):
    return random_program(
        seed, blocks=8, block_len=10, zero_idiom_rate=0.3, name="zi"
    )


def test_ablation_zero_idiom_elimination(benchmark):
    config = CoreConfig(zero_idiom_elimination=True)
    program = zero_program()

    def golden_run():
        checker = IDLDChecker()
        core = OoOCore(program, config=config, observers=[checker])
        return core, core.run(), checker

    core, result, checker = benchmark(golden_run)
    assert not checker.detected
    assert core.census_is_clean()

    # Allocation-bandwidth benefit: fewer FL pops with elimination on.
    from tests.support import RecordingObserver

    with_obs = RecordingObserver()
    OoOCore(program, config=config, observers=[with_obs]).run()
    without_obs = RecordingObserver()
    OoOCore(program, config=CoreConfig(), observers=[without_obs]).run()
    pops_on = len(with_obs.of_kind("fl_read"))
    pops_off = len(without_obs.of_kind("fl_read"))

    # Dup-mark suppression: caught instantly (the V.E claim).
    fabric = SignalFabric()
    armed = fabric.arm_suppression(ArrayName.RAT, SignalKind.DUP_MARK, 20)
    checker = IDLDChecker()
    OoOCore(program, config=config, observers=[checker], fabric=fabric).run(
        max_cycles=50_000
    )
    assert armed.fired and checker.detected
    mark_latency = checker.first_detection_cycle - armed.fired_cycle

    # Primary-model campaign with the optimization on: still 100%.
    campaign = run_engine(
        {"zi": program}, runs_per_model=8, seed=BENCH_SEED, config=config
    )
    coverage = campaign.coverage()

    # The unadapted alternatives false-positive on the bug-free run.
    bv = BitVectorScheme()
    counter = CounterScheme()
    OoOCore(program, config=config, observers=[bv, counter]).run()
    rigid = bv.detected or counter.detected

    # With elimination on, a suppressed RAT write whose intended update was
    # shared-zero over shared-zero is a true no-op (nothing moves); such
    # vacuous activations are the only permissible IDLD misses.
    misses = [
        r for r in campaign.results if r.activated and not r.idld_detected
    ]

    emit([
        "Ablation -- zero-idiom elimination (Section V.E compatibility)",
        f"  FL allocations: {pops_on} with elimination vs {pops_off} without",
        f"  dup-mark suppression detected with latency {mark_latency}",
        f"  primary-model IDLD coverage with optimization on: "
        f"{coverage['idld']:.0%} "
        f"({len(misses)} vacuous zero-over-zero activations)",
        f"  unadapted BV/counter false-positive on golden run: {rigid}",
    ])

    assert pops_on < pops_off
    # Instant, or at the enclosing recovery-flow boundary if the mark was
    # consulted during a positive walk.
    assert mark_latency <= 50
    assert coverage["idld"] >= 0.85
    from repro.analysis.outcomes import OutcomeClass

    for record in misses:
        assert record.outcome is OutcomeClass.BENIGN
        assert record.persists is False
    assert rigid
