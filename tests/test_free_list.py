"""Unit tests for the Free List FIFO and its injectable signals."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SimulatorAssertion
from repro.core.rrs.free_list import FifoFreeList
from repro.core.rrs.signals import ArrayName, SignalFabric, SignalKind
from repro.idld.parity import ParityStore

from tests.support import RecordingObserver


@pytest.fixture()
def setup():
    fabric = SignalFabric()
    observer = RecordingObserver()
    fl = FifoFreeList(8, fabric, [observer])
    fl.reset(range(8))
    return fl, fabric, observer


class TestFifoSemantics:
    def test_pop_order_is_fifo(self, setup):
        fl, _, _ = setup
        assert [fl.pop() for _ in range(4)] == [0, 1, 2, 3]

    def test_push_then_pop_wraps(self, setup):
        fl, _, _ = setup
        for _ in range(6):
            fl.pop()
        fl.push(42)
        for _ in range(2):
            fl.pop()
        assert fl.pop() == 42

    def test_count_tracks_operations(self, setup):
        fl, _, _ = setup
        assert fl.count == 8
        fl.pop()
        assert fl.count == 7
        fl.push(0)
        assert fl.count == 8

    def test_reset_partial_fill(self):
        fl = FifoFreeList(8, SignalFabric(), [])
        fl.reset([5, 6])
        assert fl.count == 2
        assert fl.contents() == [5, 6]

    def test_reset_rejects_overfill(self):
        fl = FifoFreeList(4, SignalFabric(), [])
        with pytest.raises(ValueError):
            fl.reset(range(5))

    def test_contents_head_first(self, setup):
        fl, _, _ = setup
        fl.pop()
        assert fl.contents() == [1, 2, 3, 4, 5, 6, 7]

    def test_peek_does_not_consume(self, setup):
        fl, _, _ = setup
        assert fl.peek() == 0
        assert fl.count == 8


class TestBoundaryAsserts:
    def test_pop_empty_raises(self):
        fl = FifoFreeList(4, SignalFabric(), [])
        fl.reset([])
        with pytest.raises(SimulatorAssertion):
            fl.pop()

    def test_push_full_raises(self, setup):
        fl, _, _ = setup
        with pytest.raises(SimulatorAssertion):
            fl.push(99)


class TestObserverEvents:
    def test_pop_emits_fl_read(self, setup):
        fl, _, obs = setup
        fl.pop()
        assert obs.of_kind("fl_read") == [("fl_read", 0)]

    def test_push_emits_fl_write(self, setup):
        fl, _, obs = setup
        fl.pop()
        fl.push(7)
        assert obs.of_kind("fl_write") == [("fl_write", 7)]


class TestSignalInjection:
    def test_suppressed_read_duplicates(self, setup):
        fl, fabric, obs = setup
        fabric.arm_suppression(ArrayName.FL, SignalKind.READ_ENABLE, 0)
        first = fl.pop()   # enable suppressed: pointer frozen
        second = fl.pop()  # same value delivered again
        assert first == second == 0
        # Only the second (enabled) pop emitted an event.
        assert obs.of_kind("fl_read") == [("fl_read", 0)]

    def test_suppressed_read_leaves_count(self, setup):
        fl, fabric, _ = setup
        fabric.arm_suppression(ArrayName.FL, SignalKind.READ_ENABLE, 0)
        fl.pop()
        assert fl.count == 8  # occupancy permanently inflated by one

    def test_suppressed_write_leaks(self, setup):
        fl, fabric, obs = setup
        fl.pop()
        fl.pop()
        fabric.arm_suppression(ArrayName.FL, SignalKind.WRITE_ENABLE, 0)
        fl.push(0)  # dropped
        assert fl.count == 6
        assert 0 not in fl.contents()
        assert obs.of_kind("fl_write") == []

    def test_suppression_is_one_shot(self, setup):
        fl, fabric, _ = setup
        fl.pop()
        fl.pop()
        fabric.arm_suppression(ArrayName.FL, SignalKind.WRITE_ENABLE, 0)
        fl.push(0)  # suppressed
        fl.push(1)  # lands
        assert fl.contents()[-1] == 1

    def test_suppression_respects_from_cycle(self, setup):
        fl, fabric, _ = setup
        fabric.arm_suppression(ArrayName.FL, SignalKind.READ_ENABLE, 5)
        fabric.cycle = 1
        assert fl.pop() == 0  # fires only at cycle >= 5
        fabric.cycle = 5
        assert fl.pop() == 1
        assert fl.pop() == 1  # frozen pointer replays


# -- wraparound properties (hypothesis) ---------------------------------------

#: An interleaved alloc/reclaim schedule: True = pop, False = push back a
#: previously-popped id. Long enough to force several pointer wraps on the
#: small capacities below.
_SCHEDULES = st.lists(st.booleans(), min_size=1, max_size=200)
_CAPACITIES = st.integers(min_value=1, max_value=12)


class TestWraparoundProperties:
    @given(capacity=_CAPACITIES, schedule=_SCHEDULES)
    @settings(max_examples=150, deadline=None)
    def test_never_double_delivers(self, capacity, schedule):
        """Under any legal interleaving of alloc/reclaim — including many
        head/tail wraps — a PdstID is never delivered while the previous
        delivery of it is still outstanding (that would be a duplication
        on a bug-free FIFO)."""
        fl = FifoFreeList(capacity, SignalFabric(), [])
        fl.reset(range(capacity))
        outstanding = []  # ids delivered and not yet reclaimed, FIFO order
        for do_pop in schedule:
            if do_pop and fl.count > 0:
                pdst = fl.pop()
                assert pdst not in outstanding
                outstanding.append(pdst)
            elif not do_pop and outstanding:
                fl.push(outstanding.pop(0))
        # Free set and outstanding set always partition the id space.
        assert sorted(fl.contents() + outstanding) == list(range(capacity))
        assert fl.count + len(outstanding) == capacity

    @given(capacity=_CAPACITIES, extra_pops=st.integers(min_value=0, max_value=12))
    @settings(max_examples=100, deadline=None)
    def test_reset_at_exactly_full_capacity(self, capacity, extra_pops):
        """Reset with len(ids) == capacity lands tail back on head (the
        modulo edge case): count must read full, FIFO order must be the
        reset order, and a full drain/refill cycle must stay consistent."""
        fl = FifoFreeList(capacity, SignalFabric(), [])
        # Desynchronize the pointers first so reset must rewind them.
        fl.reset(range(capacity))
        for _ in range(min(extra_pops, capacity)):
            fl.pop()
        ids = list(range(100, 100 + capacity))
        fl.reset(ids)
        assert fl.count == capacity
        assert not fl.empty
        assert fl.contents() == ids
        with pytest.raises(SimulatorAssertion):
            fl.push(999)  # full means full, even with tail == head
        assert [fl.pop() for _ in range(capacity)] == ids
        assert fl.empty
        for pdst in ids:
            fl.push(pdst)
        assert fl.contents() == ids

    @given(capacity=_CAPACITIES, schedule=_SCHEDULES)
    @settings(max_examples=150, deadline=None)
    def test_parity_store_stays_in_sync(self, capacity, schedule):
        """Every legitimate write updates parity and every read re-checks
        it, so a bug-free interleaving (with wraps reusing slots for
        different ids) must never raise a parity alarm."""
        parity = ParityStore("FL")
        fl = FifoFreeList(capacity, SignalFabric(), [], parity=parity)
        fl.reset(range(capacity))
        outstanding = []
        for do_pop in schedule:
            if do_pop and fl.count > 0:
                outstanding.append(fl.pop())
            elif not do_pop and outstanding:
                # Reclaim with flipped low bits: the slot's previous parity
                # must not leak onto the new occupant.
                fl.push(outstanding.pop(0))
        while fl.count:  # drain: every stored entry gets re-checked
            fl.pop()
        assert not parity.detected
        assert parity.alarms == []

    @given(capacity=st.integers(min_value=2, max_value=12))
    @settings(max_examples=50, deadline=None)
    def test_parity_catches_at_rest_corruption_after_wrap(self, capacity):
        """After wrapping the pointers, an at-rest upset is still caught on
        the next read of that slot (parity follows slots, not values)."""
        parity = ParityStore("FL")
        fl = FifoFreeList(capacity, SignalFabric(), [], parity=parity)
        fl.reset(range(capacity))
        fl.push(fl.pop())  # advance both pointers once to shift the window
        fl.corrupt_stored(capacity - 1, 0b1)
        for _ in range(capacity):
            fl.pop()
        assert parity.detected
        assert len(parity.alarms) == 1
