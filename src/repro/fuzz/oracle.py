"""The differential oracle: one program, three independent referees.

A fuzz input passes only when all three agree the run was clean:

1. **Architectural equivalence** — the cycle-level core's OUT stream
   matches the functional reference interpreter
   (:func:`repro.isa.semantics.reference_run`), and the run halts without
   a crash/deadlock.
2. **Closed-loop census** — at halt, every PdstID lives in exactly one of
   {FL, RAT, ROB} (the paper's Section V.A invariant).
3. **Detector silence** — IDLD, the bit-vector scheme and the counter
   scheme all stay quiet for the whole run.

On a bug-free simulator all three hold for every halting program, so any
failure is a real finding about the core/checker pair. Tests (and checked-
in failing artifacts) pass a :class:`~repro.bugs.models.BugSpec` to arm a
known bug, which must flip the oracle — that closes the loop on the oracle
itself.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.bugs.injector import arm
from repro.bugs.models import BugSpec
from repro.bugs.snapshot import make_detectors
from repro.core.config import CoreConfig
from repro.core.cpu import OoOCore
from repro.core.errors import SimulationError
from repro.core.rrs.signals import SignalFabric
from repro.fuzz.coverage import CoverageProbe, log_bucket
from repro.isa.program import Program
from repro.isa.semantics import reference_run

#: Simulation budget for one fuzz input; generated programs commit a few
#: thousand instructions, so this only binds when something is wrong (and
#: the deadlock watchdog usually fires first).
DEFAULT_MAX_CYCLES = 250_000


def output_digest(output) -> str:
    """Stable digest of an OUT stream (recorded in artifacts)."""
    payload = json.dumps(list(output)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


@dataclass(frozen=True)
class OracleReport:
    """Verdict + coverage summary of one oracle evaluation.

    The one verdict record of the fuzzer: a task returns it, the
    checkpoint's ``eval`` records, the corpus, findings and repro
    artifacts all keep it. ``failures`` is the canonical, order-stable
    tuple of everything that went wrong (empty iff ``ok``); artifacts
    record it and replays compare against it verbatim.
    ``bug_activated`` is diagnostic only and is not recorded.
    """

    ok: bool
    failures: Tuple[str, ...]
    coverage: Tuple[str, ...]
    cycles: int
    committed: int
    output_sha: str
    bug_activated: Optional[int] = None

    @property
    def verdict(self) -> str:
        return "pass" if self.ok else "+".join(self.failures)

    def to_record(self) -> Dict[str, object]:
        """The recorded fields as JSON-ready values."""
        return {
            "ok": self.ok,
            "failures": list(self.failures),
            "coverage": list(self.coverage),
            "cycles": self.cycles,
            "committed": self.committed,
            "output_sha": self.output_sha,
        }

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "OracleReport":
        return cls(
            ok=record["ok"],
            failures=tuple(record["failures"]),
            coverage=tuple(record["coverage"]),
            cycles=record["cycles"],
            committed=record["committed"],
            output_sha=record["output_sha"],
        )


def evaluate(
    program: Program,
    config: Optional[CoreConfig] = None,
    bug: Optional[BugSpec] = None,
    max_cycles: int = DEFAULT_MAX_CYCLES,
) -> OracleReport:
    """Run ``program`` through the triple oracle.

    Args:
        program: A halting program (genome-built or hand-written).
        config: Core configuration (paper defaults when None).
        bug: Optional armed bug — used by tests and failing repro
            artifacts to validate that the oracle (still) catches it.
        max_cycles: Simulation budget.

    Returns:
        The :class:`OracleReport`; ``coverage`` merges the RRS probe's
        buckets with program-level buckets (cycles, commits, OUT length).
    """
    expected_output, _, ref_steps = reference_run(program)
    fabric = SignalFabric()
    armed = arm(bug, fabric) if bug is not None else None
    probe = CoverageProbe()
    idld, bv, counter = make_detectors()
    core = OoOCore(
        program,
        config=config,
        observers=[idld, bv, counter, probe],
        fabric=fabric,
    )
    failures = []
    error: Optional[SimulationError] = None
    try:
        result = core.run(max_cycles=max_cycles)
    except SimulationError as exc:
        error = exc
        result = core.result()

    if error is not None:
        failures.append(f"sim:{type(error).__name__}")
    elif not result.halted:
        failures.append("timeout")
    if result.output != expected_output:
        failures.append("output_mismatch")
    if error is None and result.halted and not core.census_is_clean():
        failures.append("census_unclean")
    if idld.detected:
        failures.append("idld_detected")
    if bv.detected:
        failures.append("bv_detected")
    if counter.detected:
        failures.append("counter_detected")

    coverage = probe.buckets()
    coverage.add(f"cycles:{log_bucket(result.cycles)}")
    coverage.add(f"commits:{log_bucket(result.committed)}")
    coverage.add(f"out_len:{log_bucket(len(result.output))}")
    coverage.add(f"ref_steps:{log_bucket(ref_steps)}")

    return OracleReport(
        ok=not failures,
        failures=tuple(failures),
        coverage=tuple(sorted(coverage)),
        cycles=result.cycles,
        committed=result.committed,
        output_sha=output_digest(result.output),
        bug_activated=armed.fired_cycle if armed is not None else None,
    )
