"""Unit + property tests for the generic flow-invariance checker."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.idld.flow import FlowInvariantChecker


class TestBasics:
    def test_balanced_flow_never_alarms(self):
        guard = FlowInvariantChecker(16)
        for token in (3, 7, 0, 15):
            guard.source(token)
            guard.sink(token)
            guard.tick(1)
        guard.quiescent(2)
        assert not guard.detected

    def test_out_of_order_sinks_allowed(self):
        guard = FlowInvariantChecker(16)
        guard.source(1)
        guard.source(2)
        guard.sink(2)
        guard.sink(1)
        guard.tick(5)
        assert not guard.detected

    def test_counter_zero_catches_swap(self):
        guard = FlowInvariantChecker(16)
        guard.source(1)
        guard.sink(2)  # wrong token came out
        guard.tick(9)
        assert guard.detected
        assert guard.violations[0].policy == "counter_zero"

    def test_leak_caught_at_quiescent(self):
        guard = FlowInvariantChecker(16)
        guard.source(5)  # never sinks
        guard.tick(1)    # counter nonzero: no counter_zero check
        assert not guard.detected
        guard.quiescent(2)
        assert guard.detected

    def test_even_multiplicity_leak_caught_by_counter(self):
        """Two leaked tokens with the same id cancel in the XOR; the
        outstanding counter at quiescence still flags them."""
        guard = FlowInvariantChecker(16)
        guard.source(5)
        guard.source(5)
        guard.quiescent(3)
        assert guard.detected
        assert guard.violations[0].outstanding == 2

    def test_token_zero_visible(self):
        guard = FlowInvariantChecker(16)
        guard.source(0)
        guard.quiescent(1)
        assert guard.detected

    def test_chicken_bit(self):
        guard = FlowInvariantChecker(16, enabled=False)
        guard.source(1)
        guard.quiescent(1)
        guard.tick(1)
        assert not guard.detected

    def test_id_space_validated(self):
        with pytest.raises(ValueError):
            FlowInvariantChecker(0)


class TestProperties:
    @given(st.lists(st.integers(min_value=0, max_value=31), max_size=40))
    @settings(max_examples=60)
    def test_any_matched_flow_is_clean(self, tokens):
        guard = FlowInvariantChecker(32)
        for token in tokens:
            guard.source(token)
        for token in reversed(tokens):
            guard.sink(token)
        guard.tick(1)
        guard.quiescent(2)
        assert not guard.detected

    @given(
        st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=40),
        st.integers(min_value=0),
    )
    @settings(max_examples=60)
    def test_dropping_any_one_token_is_caught(self, tokens, drop_index):
        guard = FlowInvariantChecker(32)
        dropped = drop_index % len(tokens)
        for token in tokens:
            guard.source(token)
        for i, token in enumerate(tokens):
            if i != dropped:
                guard.sink(token)
        guard.quiescent(1)
        assert guard.detected

    @given(
        st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=40),
        st.integers(min_value=0, max_value=31),
    )
    @settings(max_examples=60)
    def test_duplicating_any_sink_is_caught(self, tokens, extra):
        guard = FlowInvariantChecker(32)
        for token in tokens:
            guard.source(token)
        for token in tokens:
            guard.sink(token)
        guard.sink(extra)  # phantom arrival
        guard.quiescent(1)
        assert guard.detected
