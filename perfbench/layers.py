"""Per-layer instrumentation for one benchmark iteration.

:class:`Instruments` is a context manager that replaces public layer
functions with timing wrappers for the duration of one CLI call and puts
the originals back on exit. It always installs one cheap probe, the
first-task timestamp that defines ``setup_s``; with ``trace=True`` it
also records a span (name, start, end, parent span, task key) around
every wrapped call, keeps per-layer counters, and turns on the core's
public stage profiler.

Names are wrapped where they are looked up: ``execute_task`` is bound
both in ``repro.exec.tasks`` (batched members) and in
``repro.exec.backends`` (single tasks), so both bindings are replaced.
Detector hooks are never wrapped: ``listeners()`` dispatch and the
fast-forward lockstep fallback depend on which hooks an observer
overrides.

:func:`layer_metrics` turns the raw counters of the traced iterations of
one run into the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import math
import pickle
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Stage-profiler buckets reported as shares of profiled stage time.
STAGES = (
    "fetch",
    "rename",
    "issue",
    "execute",
    "commit",
    "flush",
    "recovery",
    "observer",
    "fast_forward",
)


class Instruments:
    """Wrap layer entry points for one in-process CLI call.

    Attributes:
        first_task_ns: ``perf_counter_ns`` of the first dispatched task
            (``ExecutionContext.execute``), or None if none ran.
        totals: Raw per-layer counters (``<span>.calls``, ``<span>.ns``
            and named work counts); empty unless tracing.
        task_ms: Wall time of each task (injection or fuzz evaluation).
        spans: ``(id, parent, name, start_ns, end_ns, task_key)`` tuples.
    """

    def __init__(self, trace: bool = False) -> None:
        self.trace = trace
        self.first_task_ns: Optional[int] = None
        self.totals: Dict[str, float] = defaultdict(int)
        self.task_ms: List[float] = []
        self.spans: List[tuple] = []
        self.stage_ns: Dict[str, int] = {}
        self._patches: List[tuple] = []
        self._stack: List[int] = []
        self._key: Optional[str] = None
        self._next_id = 0
        self._profile: Optional[Dict[str, int]] = None

    # -- install / restore ---------------------------------------------------

    def __enter__(self) -> "Instruments":
        from repro.exec.backends import ExecutionContext

        try:
            self._install_probe(ExecutionContext)
            if self.trace:
                self._install_trace()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        if self._profile is not None:
            from repro.core.cpu import disable_stage_profiling

            disable_stage_profiling()
            self.stage_ns = {s: self._profile.get(s, 0) for s in STAGES}
            self._profile = None

    def _patch(self, owner, attr: str, replacement) -> None:
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        if isinstance(owner, dict):
            owner[attr] = replacement
        else:
            setattr(owner, attr, replacement)

    def _install_probe(self, context_cls) -> None:
        original = context_cls.execute
        instruments = self

        def execute(context, task):
            if instruments.first_task_ns is None:
                instruments.first_task_ns = time.perf_counter_ns()
            return original(context, task)

        self._patch(context_cls, "execute", execute)

    # -- spans -----------------------------------------------------------------

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        after: Optional[Callable] = None,
        before: Optional[Callable] = None,
        task_key: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]``) with a span timer.

        ``after(args, result, ns, state)`` runs once the call returns or
        raises (``result`` is then None), with ``state = before(args)``
        taken just before the call. ``task_key(args)`` names the task the
        span and its children belong to.
        """
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        instruments = self

        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            outer_key = instruments._key
            if task_key is not None:
                instruments._key = task_key(args)
            span_id = instruments._next_id
            instruments._next_id += 1
            parent = instruments._stack[-1] if instruments._stack else None
            instruments._stack.append(span_id)
            result = None
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                instruments._stack.pop()
                instruments.spans.append(
                    (span_id, parent, name, start, end, instruments._key)
                )
                instruments._key = outer_key
                instruments.totals[name + ".calls"] += 1
                instruments.totals[name + ".ns"] += end - start
                if after is not None:
                    after(args, result, end - start, state)

        self._patch(owner, attr, wrapper)

    def _install_trace(self) -> None:
        import repro.analysis.export as export
        import repro.bugs.campaign as campaign
        import repro.exec.backends as backends
        import repro.exec.tasks as tasks
        import repro.fuzz.engine as fuzz_engine
        import repro.workloads as workloads
        from repro.bugs.differential import DeltaTrace
        from repro.bugs.snapshot import SnapshotProvider
        from repro.core.cpu import OoOCore, enable_stage_profiling
        from repro.exec.checkpoint import CheckpointWriter

        totals = self.totals

        for bench in list(workloads.WORKLOADS):
            self.wrap(workloads.WORKLOADS, bench, "workloads.build")

        def provider_built(args, result, ns, state):
            provider = args[0]
            if hasattr(provider, "golden"):  # absent when __init__ raised
                totals["snapshot.golden_cycles"] += provider.golden.cycles
                totals["snapshot.captured"] += provider.count

        def restored(args, result, ns, state):
            totals["snapshot.cycles_skipped"] += args[1].cycle

        self.wrap(SnapshotProvider, "__init__", "snapshot.build", provider_built)
        self.wrap(SnapshotProvider, "restore_into", "snapshot.restore", restored)

        def forecast(args, result, ns, state):
            totals["differential.zero_sim"] += result is None

        def compared(args, result, ns, state):
            totals["differential.converged"] += bool(result)

        self.wrap(
            DeltaTrace, "first_perturbation", "differential.forecast", forecast
        )
        self.wrap(OoOCore, "fingerprint", "differential.fingerprint")
        self.wrap(campaign, "converged", "differential.deep_compare", compared)

        def core_counts(args):
            core = args[0]
            return (core.cycle, core.ff_cycles_skipped, core.stats["recovery_cycles"])

        def stepped(args, result, ns, state):
            core = args[0]
            skipped = core.ff_cycles_skipped - state[1]
            totals["core.cycles_ff"] += skipped
            totals["core.cycles_stepped"] += core.cycle - state[0] - skipped
            totals["core.recovery_cycles"] += (
                core.stats["recovery_cycles"] - state[2]
            )

        self.wrap(OoOCore, "run_cycles", "core.run_cycles", stepped, core_counts)

        def injected(args, result, ns, state):
            # Runs that neither spliced nor converged simulated to the end
            # (or raised, which also ends the suffix).
            if result is None or result.early_terminated_cycle is None:
                totals["injector.full_suffix.ns"] += ns

        self.wrap(campaign, "run_injection", "injector.run_injection", injected)
        self.wrap(campaign, "classify_run", "classify")

        def task_done(args, result, ns, state):
            self.task_ms.append(ns / 1e6)
            if result is not None and not getattr(result, "activated", True):
                totals["injector.never_activated"] += 1

        def key_of(args):
            return args[0].key

        for module in (tasks, backends):
            self.wrap(
                module, "execute_task", "exec.task", task_done, task_key=key_of
            )
        self.wrap(
            fuzz_engine, "run_fuzz_task", "fuzz.evaluate", task_done,
            task_key=key_of,
        )

        def fuzzed(args, summary, ns, state):
            if summary is not None:
                totals["fuzz.coverage_points"] += len(summary.coverage)
                totals["fuzz.corpus_size"] += len(summary.corpus)

        self.wrap(fuzz_engine, "run_fuzz", "fuzz.run", fuzzed)

        def dispatched(args, result, ns, state):
            # Pickle size of the unit and its results: what one round trip
            # to a pool worker would carry.
            totals["exec.pickled_bytes"] += len(pickle.dumps(args[1])) + len(
                pickle.dumps(result)
            )

        self.wrap(backends.ExecutionContext, "execute", "exec.unit", dispatched)
        self.wrap(CheckpointWriter, "write_result", "checkpoint.write")
        self.wrap(export, "write_csv", "export.csv")
        self.wrap(export, "write_json", "export.json")
        self._profile = enable_stage_profiling()

    def write_spans(self, path: str, iteration: int) -> None:
        """Append this iteration's spans as JSON lines to ``path``."""
        with open(path, "a") as handle:
            for span_id, parent, name, start, end, key in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "iteration": iteration,
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "task": key,
                        }
                    )
                    + "\n"
                )


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def layer_metrics(traced: List[dict]) -> Dict[str, float]:
    """Per-layer metrics over the traced iterations of one run.

    Each entry of ``traced`` is one iteration record as written by
    ``iteration.py`` plus the file-derived counts ``checkpoint_records``,
    ``checkpoint_bytes`` and ``export_bytes`` and the paired untraced
    ``wall_s`` under ``untraced_wall_s``. Counts and times are summed over
    the iterations; ratios are taken of the sums.
    """
    t: Dict[str, float] = defaultdict(int)
    stage: Dict[str, float] = defaultdict(int)
    task_ms: List[float] = []
    wall = setup = 0.0
    files: Dict[str, float] = defaultdict(int)
    for record in traced:
        for key, value in record["totals"].items():
            t[key] += value
        for key, value in record["stage_ns"].items():
            stage[key] += value
        task_ms.extend(record["task_ms"])
        wall += record["wall_s"]
        setup += record["setup_s"]
        for key in ("checkpoint_records", "checkpoint_bytes", "export_bytes"):
            files[key] += record[key]

    def s(name: str) -> float:
        return t[name + ".ns"] / 1e9

    def n(name: str) -> float:
        return t[name + ".calls"]

    tasks = n("exec.task") + n("fuzz.evaluate")
    stepped = t["core.cycles_stepped"]
    stage_total = sum(stage[b] for b in STAGES)
    overheads = [
        r["wall_s"] / r["untraced_wall_s"]
        for r in traced
        if r.get("untraced_wall_s")
    ]
    metrics = {
        "workloads.build_s": s("workloads.build"),
        "snapshot.builds": n("snapshot.build"),
        "snapshot.build_s": s("snapshot.build"),
        "snapshot.golden_cycles": t["snapshot.golden_cycles"],
        "snapshot.captured": t["snapshot.captured"],
        "snapshot.restores": n("snapshot.restore"),
        "snapshot.restore_s": s("snapshot.restore"),
        "snapshot.cycles_skipped": t["snapshot.cycles_skipped"],
        "differential.forecasts": n("differential.forecast"),
        "differential.zero_sim": t["differential.zero_sim"],
        "differential.fingerprints": n("differential.fingerprint"),
        "differential.fingerprint_s": s("differential.fingerprint"),
        "differential.deep_compares": n("differential.deep_compare"),
        "differential.deep_compare_s": s("differential.deep_compare"),
        "differential.converged": t["differential.converged"],
        "differential.converge_ratio": _share(
            t["differential.converged"], n("differential.deep_compare")
        ),
        "differential.full_suffix_share": _share(
            t["injector.full_suffix.ns"], t["injector.run_injection.ns"]
        ),
        "core.run_cycles_s": s("core.run_cycles"),
        "core.cycles_stepped": stepped,
        "core.cycles_ff": t["core.cycles_ff"],
        "core.recovery_cycles": t["core.recovery_cycles"],
        "core.recovery_share": _share(t["core.recovery_cycles"], stepped),
        "core.ns_per_cycle": _share(t["core.run_cycles.ns"], stepped),
    }
    for bucket in STAGES:
        metrics[f"core.stage.{bucket}_share"] = _share(stage[bucket], stage_total)
    metrics.update(
        {
            "injector.attempts": n("injector.run_injection"),
            "injector.redraws_per_task": _share(
                n("injector.run_injection") - n("exec.task"), n("exec.task")
            ),
            "injector.never_activated": t["injector.never_activated"],
            "classify.calls": n("classify"),
            "classify.s": s("classify"),
            "exec.tasks": tasks,
            "exec.units": n("exec.unit"),
            "exec.task_p50_ms": percentile(task_ms, 50),
            "exec.task_p90_ms": percentile(task_ms, 90),
            "exec.self_s": max(
                0.0,
                wall
                - setup
                - s("exec.unit")
                - s("checkpoint.write")
                - s("export.csv")
                - s("export.json"),
            ),
            "exec.pickled_bytes_per_task": _share(t["exec.pickled_bytes"], tasks),
            "checkpoint.records": files["checkpoint_records"],
            "checkpoint.bytes": files["checkpoint_bytes"],
            "checkpoint.write_s": s("checkpoint.write"),
            "export.csv_s": s("export.csv"),
            "export.json_s": s("export.json"),
            "export.bytes": files["export_bytes"],
            "fuzz.evals": n("fuzz.evaluate"),
            "fuzz.evaluate_s": s("fuzz.evaluate"),
            "fuzz.driver_s": max(0.0, s("fuzz.run") - s("fuzz.evaluate")),
            "fuzz.coverage_points": t["fuzz.coverage_points"],
            "fuzz.corpus_size": t["fuzz.corpus_size"],
            "trace.overhead": statistics.median(overheads) if overheads else 0.0,
        }
    )
    if len(task_ms) >= 1000:
        # Only with at least ten samples beyond the 99th percentile.
        metrics["exec.task_p99_ms"] = percentile(task_ms, 99)
    return metrics
