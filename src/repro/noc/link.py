"""A credit-based NoC link guarded by the generic flow checker.

Section V.F's closing claim is that the IDLD recipe transfers to "bus
communication, exchanges between NoC links, FIFOs etc." -- any closed loop
of tokens. A credit-managed link has two such loops at once:

* **flits**: every flit injected upstream must arrive in the receive
  buffer and be drained by the consumer (loss = leakage; a delivery into a
  full buffer = the duplication analog);
* **credits**: every credit consumed at injection must return when its
  buffer slot drains; the per-VC credit population is a fixed resource
  exactly like the Pdst pool.

Two :class:`repro.idld.flow.FlowInvariantChecker` instances guard the two
loops; the link's control signals (deliver, credit-return, credit-consume)
are injectable through :class:`repro.idld.flow.FlowSignalFabric`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.idld.flow import FlowInvariantChecker, FlowSignalFabric
from repro.noc.signals import NocSignal


class LinkAssertion(Exception):
    """A hardware-impossible state was reached (e.g. buffer overflow)."""

    def __init__(self, cycle: int, message: str) -> None:
        super().__init__(f"cycle {cycle}: {message}")
        self.cycle = cycle


@dataclass
class Flit:
    """One link transfer unit."""

    flit_id: int
    vc: int
    payload: int


@dataclass
class LinkStats:
    """Run statistics."""

    injected: int = 0
    delivered: int = 0
    drained: int = 0
    stalled_injections: int = 0
    cycles: int = 0


class CreditLink:
    """Point-to-point link with per-VC credit flow control.

    Args:
        num_vcs: Virtual channels.
        buffer_depth: Receive-buffer slots per VC (= credits per VC).
        wire_latency: Cycles a flit or credit spends on the wire.
        drain_rate: Flits the consumer drains per cycle (across VCs).
        id_space: Flit identifier space (must exceed the maximum number of
            flits in flight so ids are unique while outstanding).
        fabric: Signal fabric (bug injection).
    """

    def __init__(
        self,
        num_vcs: int = 2,
        buffer_depth: int = 4,
        wire_latency: int = 3,
        drain_rate: int = 1,
        id_space: int = 64,
        fabric: Optional[FlowSignalFabric] = None,
    ) -> None:
        if buffer_depth < 1 or num_vcs < 1:
            raise ValueError("need at least one VC and one buffer slot")
        self.num_vcs = num_vcs
        self.buffer_depth = buffer_depth
        self.wire_latency = wire_latency
        self.drain_rate = drain_rate
        self.id_space = id_space
        self.fabric = fabric or FlowSignalFabric()

        self.cycle = 0
        self.credits: List[int] = [buffer_depth] * num_vcs
        self.flit_wire: List[Tuple[int, Flit]] = []
        self.credit_wire: List[Tuple[int, int]] = []  # (arrive_cycle, vc)
        self.rx_buffers: List[List[Flit]] = [[] for _ in range(num_vcs)]
        self.delivered_payloads: List[int] = []
        self.stats = LinkStats()
        self._next_flit_id = 0

        #: The two flow guards of the module docstring.
        self.flit_guard = FlowInvariantChecker(id_space)
        self.credit_guard = FlowInvariantChecker(num_vcs)

    # -- sender side ------------------------------------------------------------

    def try_inject(self, vc: int, payload: int) -> bool:
        """Inject one flit on ``vc`` if a credit is available."""
        if self.credits[vc] <= 0:
            self.stats.stalled_injections += 1
            return False
        flit = Flit(self._next_flit_id % self.id_space, vc, payload)
        self._next_flit_id += 1
        if self.fabric.asserted(NocSignal.CREDIT_CONSUME):
            self.credits[vc] -= 1
            self.credit_guard.source(vc)
        # A suppressed consume leaves the counter high: the sender will
        # over-inject and eventually overrun the receive buffer.
        self.flit_guard.source(flit.flit_id)
        self.flit_wire.append((self.cycle + self.wire_latency, flit))
        self.stats.injected += 1
        return True

    # -- one cycle ----------------------------------------------------------------

    def step(self) -> None:
        self.cycle += 1
        self.fabric.cycle = self.cycle
        self.stats.cycles = self.cycle
        self._deliver_flits()
        self._drain_buffers()
        self._receive_credits()
        self.flit_guard.tick(self.cycle)
        self.credit_guard.tick(self.cycle)
        if self.idle:
            self.flit_guard.quiescent(self.cycle)
            self.credit_guard.quiescent(self.cycle)

    def _deliver_flits(self) -> None:
        arriving = [f for f in self.flit_wire if f[0] <= self.cycle]
        self.flit_wire = [f for f in self.flit_wire if f[0] > self.cycle]
        for _, flit in arriving:
            if self.fabric.asserted(NocSignal.FLIT_DELIVER):
                buffer = self.rx_buffers[flit.vc]
                if len(buffer) >= self.buffer_depth:
                    raise LinkAssertion(
                        self.cycle,
                        f"VC{flit.vc} receive-buffer overflow",
                    )
                buffer.append(flit)
                self.stats.delivered += 1
            # Suppressed delivery: the flit vanishes on the wire (leakage).

    def _drain_buffers(self) -> None:
        drained = 0
        for vc in range(self.num_vcs):
            while drained < self.drain_rate and self.rx_buffers[vc]:
                flit = self.rx_buffers[vc].pop(0)
                self.delivered_payloads.append(flit.payload)
                self.flit_guard.sink(flit.flit_id)
                self.stats.drained += 1
                drained += 1
                if self.fabric.asserted(NocSignal.CREDIT_RETURN):
                    self.credit_wire.append(
                        (self.cycle + self.wire_latency, vc)
                    )
                # Suppressed return: the credit leaks; the VC's usable
                # window shrinks permanently (starvation/deadlock risk).

    def _receive_credits(self) -> None:
        arriving = [c for c in self.credit_wire if c[0] <= self.cycle]
        self.credit_wire = [c for c in self.credit_wire if c[0] > self.cycle]
        for _, vc in arriving:
            if self.credits[vc] >= self.buffer_depth:
                raise LinkAssertion(
                    self.cycle, f"VC{vc} credit counter overflow"
                )
            self.credits[vc] += 1
            self.credit_guard.sink(vc)

    # -- probes ----------------------------------------------------------------------

    @property
    def idle(self) -> bool:
        """No flits or credits anywhere in the loop."""
        return (
            not self.flit_wire
            and not self.credit_wire
            and all(not buffer for buffer in self.rx_buffers)
        )

    def credit_census_clean(self) -> bool:
        """Ground truth: each VC's credits + in-loop occupancy == depth."""
        for vc in range(self.num_vcs):
            in_buffer = len(self.rx_buffers[vc])
            on_flit_wire = sum(1 for _, f in self.flit_wire if f.vc == vc)
            on_credit_wire = sum(1 for _, v in self.credit_wire if v == vc)
            total = self.credits[vc] + in_buffer + on_flit_wire + on_credit_wire
            if total != self.buffer_depth:
                return False
        return True


def run_traffic(
    link: CreditLink,
    num_flits: int,
    seed: int = 5,
    inject_rate: float = 0.6,
    max_cycles: int = 50_000,
) -> LinkStats:
    """Drive a seeded bursty traffic pattern through a link.

    Returns once every flit is injected and the loop is idle, or at the
    cycle budget (a starved/hung link never reaches idle).
    """
    rng = random.Random(seed)
    to_send = num_flits
    while link.cycle < max_cycles:
        if to_send > 0 and rng.random() < inject_rate:
            vc = rng.randrange(link.num_vcs)
            if link.try_inject(vc, payload=rng.getrandbits(16)):
                to_send -= 1
        link.step()
        if to_send == 0 and link.idle:
            break
    return link.stats
