"""Tests for the credit-link substrate and its flow guards."""

import pytest

from repro.idld.flow import FlowSignalFabric
from repro.noc import (
    CreditLink,
    LinkAssertion,
    NocSignal,
    run_traffic,
)


class TestGoldenTraffic:
    @pytest.mark.parametrize("seed", range(5))
    def test_all_flits_arrive(self, seed):
        link = CreditLink()
        stats = run_traffic(link, 150, seed=seed)
        assert stats.drained == 150
        assert link.idle

    @pytest.mark.parametrize("seed", range(5))
    def test_guards_clean_on_golden(self, seed):
        link = CreditLink()
        run_traffic(link, 150, seed=seed)
        assert not link.flit_guard.detected
        assert not link.credit_guard.detected
        assert link.credit_census_clean()

    def test_payloads_preserved(self):
        link = CreditLink(num_vcs=1, drain_rate=2)
        sent = []
        for i in range(20):
            while not link.try_inject(0, payload=i):
                link.step()
            sent.append(i)
            link.step()
        while not link.idle:
            link.step()
        assert link.delivered_payloads == sent

    def test_backpressure_stalls_sender(self):
        link = CreditLink(num_vcs=1, buffer_depth=2, drain_rate=0)
        injected = sum(link.try_inject(0, 1) for _ in range(10))
        assert injected == 2  # exactly the credit budget
        assert link.stats.stalled_injections == 8

    def test_credits_recirculate(self):
        link = CreditLink(num_vcs=1, buffer_depth=1, wire_latency=1)
        for payload in range(5):
            while not link.try_inject(0, payload):
                link.step()
            link.step()
        while not link.idle:
            link.step()
        assert link.stats.drained == 5
        assert link.credits[0] == 1


class TestInjections:
    def test_dropped_flit_detected_at_quiescence(self):
        fabric = FlowSignalFabric()
        armed = fabric.arm(NocSignal.FLIT_DELIVER, 30)
        link = CreditLink(fabric=fabric)
        stats = run_traffic(link, 150, seed=1)
        assert armed.fired
        assert stats.drained == 149  # one flit vanished on the wire
        assert link.flit_guard.detected
        assert not link.credit_census_clean()

    def test_leaked_credit_detected(self):
        fabric = FlowSignalFabric()
        armed = fabric.arm(NocSignal.CREDIT_RETURN, 30)
        link = CreditLink(fabric=fabric)
        stats = run_traffic(link, 150, seed=1)
        assert armed.fired
        assert stats.drained == 150  # data flow unharmed...
        assert not link.flit_guard.detected
        assert link.credit_guard.detected  # ...but the credit loop leaked
        assert not link.credit_census_clean()

    def test_leaked_credit_starves_tight_link(self):
        """With one credit per VC, a leaked credit deadlocks that VC."""
        fabric = FlowSignalFabric()
        armed = fabric.arm(NocSignal.CREDIT_RETURN, 5)
        link = CreditLink(
            num_vcs=1, buffer_depth=1, wire_latency=1, fabric=fabric
        )
        stats = run_traffic(link, 50, seed=2, max_cycles=2_000)
        assert armed.fired
        assert stats.drained < 50  # the link hung before finishing

    def test_unconsumed_credit_overflows_counter(self):
        """A suppressed credit-consume is a duplication: the returned
        credit overruns the counter -- hardware-assertion territory."""
        fabric = FlowSignalFabric()
        fabric.arm(NocSignal.CREDIT_CONSUME, 10)
        link = CreditLink(fabric=fabric)
        with pytest.raises(LinkAssertion):
            run_traffic(link, 150, seed=1)

    def test_detection_happens_after_activation(self):
        fabric = FlowSignalFabric()
        armed = fabric.arm(NocSignal.FLIT_DELIVER, 40)
        link = CreditLink(fabric=fabric)
        run_traffic(link, 150, seed=3)
        if armed.fired and link.flit_guard.detected:
            assert link.flit_guard.first_detection_cycle >= armed.fired_cycle


class TestConfigValidation:
    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            CreditLink(num_vcs=0)
        with pytest.raises(ValueError):
            CreditLink(buffer_depth=0)
