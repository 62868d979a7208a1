#!/usr/bin/env python3
"""Why root-causing RRS bugs is hard -- and what IDLD buys you.

Runs a small injection campaign on one benchmark and compares, per bug:

* the *manifestation* latency (activation -> first architecturally
  observable deviation; what a debug engineer without IDLD must bridge),
* the *IDLD detection* latency (activation -> XOR code violation),
* the *BV* detection latency (the Section V.E alternative).

The paper's Figure 5 shows manifestations landing millions of cycles after
activation (and 13.5% never manifesting at all); IDLD pins the activation
cycle exactly.
"""

from repro.analysis.buckets import histogram_table
from repro.analysis.trace import RRSTracer
from repro.core import OoOCore, SimulationError
from repro.core.rrs.signals import ArrayName, SignalFabric, SignalKind
from repro.exec.engine import run_engine
from repro.idld import IDLDChecker
from repro.workloads import WORKLOADS


def main() -> None:
    program = WORKLOADS["dijkstra"](scale=1.5)
    campaign = run_engine({"dijkstra": program}, runs_per_model=15, seed=9)

    rows = [r for r in campaign.results if r.activated]
    manifest = [
        r.manifestation_latency for r in rows if r.manifestation_latency is not None
    ]
    never = sum(1 for r in rows if r.manifestation_latency is None)
    idld = [r.idld_latency for r in rows if r.idld_latency is not None]
    bv = [r.bv_latency for r in rows if r.bv_latency is not None]

    print(f"{len(rows)} bug injections into 'dijkstra' "
          f"(golden run: {campaign.goldens['dijkstra'].cycles} cycles)\n")
    print("\n".join(histogram_table({
        "manifest": manifest,
        "IDLD": idld,
        "BV": bv,
    })))
    print(f"\nbugs that NEVER manifest architecturally: {never} "
          f"({never / len(rows):.0%}) -- invisible without IDLD")
    print(f"IDLD detected {len(idld)}/{len(rows)} "
          f"(max latency {max(idld) if idld else 0} cycles)")
    print(f"BV detected {len(bv)}/{len(rows)} "
          f"(max latency {max(bv) if bv else 0} cycles)")
    print("\nThe debugging gap: without IDLD you must reconstruct up to "
          f"{max(manifest) if manifest else 0} cycles of microarchitectural "
          "history; with IDLD, zero to a handful.")

    # --- the triage workflow: IDLD pins the cycle, the trace shows it ---
    fabric = SignalFabric()
    armed = fabric.arm_suppression(ArrayName.RAT, SignalKind.WRITE_ENABLE, 400)
    tracer = RRSTracer()
    checker = IDLDChecker()
    core = OoOCore(program, observers=[tracer, checker], fabric=fabric)
    # Post-silicon style: freeze the machine the moment the checker fires.
    try:
        while not core.halted and core.cycle < 50_000 and not checker.detected:
            core.step()
    except SimulationError:
        pass
    if checker.detected:
        cycle = checker.first_detection_cycle
        print(f"\nTriage demo: IDLD flagged cycle {cycle} "
              f"(bug activated at {armed.fired_cycle}); machine frozen. "
              "RRS trace around the activation:")
        print(tracer.render(around_cycle=armed.fired_cycle, radius=1))


if __name__ == "__main__":
    main()
