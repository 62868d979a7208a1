#!/usr/bin/env python3
"""The generic IDLD recipe on a NoC credit link (Section V.F's last claim).

Two closed token loops live in a credit-managed link -- flits and credits.
One :class:`FlowInvariantChecker` per loop gives IDLD-style detection of
dropped flits and leaked credits, including the classic silent failure
where data still flows perfectly while the credit loop bleeds capacity.
"""

from repro.idld.flow import FlowSignalFabric
from repro.noc import CreditLink, NocSignal, run_traffic


def report(title, link, stats, armed=None):
    print(f"=== {title} ===")
    if armed is not None:
        print(f"bug activated at cycle {armed.fired_cycle}")
    print(f"injected {stats.injected}, drained {stats.drained} "
          f"in {stats.cycles} cycles")
    for name, guard in (("flit", link.flit_guard), ("credit", link.credit_guard)):
        if guard.detected:
            violation = guard.violations[0]
            print(f"  {name}-loop guard: VIOLATION at cycle {violation.cycle} "
                  f"({violation.policy}, {violation.outstanding} outstanding)")
        else:
            print(f"  {name}-loop guard: clean")
    print(f"  credit census clean: {link.credit_census_clean()}\n")


def main() -> None:
    link = CreditLink()
    stats = run_traffic(link, 300, seed=9)
    report("bug-free traffic", link, stats)

    fabric = FlowSignalFabric()
    armed = fabric.arm(NocSignal.FLIT_DELIVER, 50)
    link = CreditLink(fabric=fabric)
    stats = run_traffic(link, 300, seed=9)
    report("one flit dropped on the wire", link, stats, armed)

    fabric = FlowSignalFabric()
    armed = fabric.arm(NocSignal.CREDIT_RETURN, 50)
    link = CreditLink(fabric=fabric)
    stats = run_traffic(link, 300, seed=9)
    report("one credit never returned (data flow looks PERFECT)", link,
           stats, armed)


if __name__ == "__main__":
    main()
