"""Property-based tests of the core invariants (hypothesis)."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import CoreConfig, OoOCore
from repro.core.rrs.free_list import FifoFreeList
from repro.core.rrs.signals import SignalFabric
from repro.idld import IDLDChecker
from repro.isa.semantics import reference_run
from repro.workloads.generator import random_program

SLOW = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(seed=st.integers(min_value=0, max_value=10_000))
@SLOW
def test_closed_loop_token_invariant(seed):
    """For any halting program: the cycle-level core commits the
    architectural outputs, the PdstID census is exactly {0..P-1} at halt,
    and the IDLD code never deviates (Section V.A's invariance)."""
    program = random_program(seed, blocks=4, block_len=6, max_loop_iters=6)
    expected, _, _ = reference_run(program)
    checker = IDLDChecker()
    core = OoOCore(program, observers=[checker])
    result = core.run()
    assert result.halted
    assert result.output == expected
    assert not checker.detected
    census = core.rrs_id_census()
    assert sorted(census) == list(range(core.config.num_physical_regs))
    assert all(count == 1 for count in census.values())


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    width=st.sampled_from([1, 2, 4]),
    phys=st.sampled_from([48, 64, 128]),
)
@SLOW
def test_invariant_across_configurations(seed, width, phys):
    program = random_program(seed, blocks=3, block_len=5, max_loop_iters=5)
    expected, _, _ = reference_run(program)
    config = CoreConfig(width=width, num_physical_regs=phys,
                        rob_entries=24, checkpoint_interval=8)
    checker = IDLDChecker()
    core = OoOCore(program, config=config, observers=[checker])
    result = core.run()
    assert result.output == expected
    assert not checker.detected


@given(ops=st.lists(st.booleans(), max_size=60))
@settings(max_examples=50, deadline=None)
def test_free_list_model_equivalence(ops):
    """The FIFO free list behaves exactly like a deque under any legal
    push/pop sequence (True=pop, False=push of a recycled id)."""
    from collections import deque

    fl = FifoFreeList(16, SignalFabric(), [])
    fl.reset(range(8))
    model = deque(range(8))
    held = []
    for is_pop in ops:
        if is_pop and model:
            assert fl.pop() == model.popleft()
            held.append(1)
        elif not is_pop and held and len(model) < 16:
            value = held.pop()
            fl.push(value)
            model.append(value)
    assert fl.contents() == list(model)
    assert fl.count == len(model)


@given(
    n=st.integers(min_value=1, max_value=200),
    seed=st.integers(min_value=0, max_value=999),
)
@settings(max_examples=30, deadline=None)
def test_reference_interpreter_is_total_on_generated_programs(n, seed):
    program = random_program(seed, blocks=2, block_len=4, max_loop_iters=4)
    output, regs, steps = reference_run(program)
    assert len(regs) == 32
    assert steps >= 1
