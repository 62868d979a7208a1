"""Credit-based NoC link: the generic-flow use case of Section V.F."""

from repro.noc.link import (
    CreditLink,
    Flit,
    LinkAssertion,
    LinkStats,
    run_traffic,
)
from repro.noc.signals import NocSignal

__all__ = [
    "CreditLink",
    "Flit",
    "LinkAssertion",
    "LinkStats",
    "NocSignal",
    "run_traffic",
]
