"""Progress events for campaign and fuzz execution.

:class:`~repro.exec.engine.RunDriver` emits one :class:`ProgressEvent` per
completed task (plus one before a dispatch that follows skipped resumed
work) through plain callables, so consumers stay decoupled from execution:
the CLI attaches a :class:`ProgressPrinter`, tests a recording lambda.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, IO, Optional, Tuple

#: A progress observer: called with each event, return value ignored.
ProgressObserver = Callable[["ProgressEvent"], None]


@dataclass(frozen=True)
class ProgressEvent:
    """A snapshot of campaign execution state.

    Attributes:
        done: Completed tasks, including ones restored by ``--resume``.
        total: Total tasks in the campaign.
        skipped: How many of ``done`` were restored from a checkpoint
            rather than executed now.
        elapsed_s: Wall-clock seconds since the engine started.
        throughput: Executed injections per second (resume-restored tasks
            excluded; 0.0 until the first task finishes).
        eta_s: Estimated seconds until campaign completion (None until
            throughput is known).
        benchmark: Benchmark of the task that triggered this event
            (None for the initial resume event).
        per_benchmark: benchmark -> (done, total) task counts.
        failed: How many of ``done`` were quarantined (structured task
            failures) rather than completed — including ones restored
            from a resume checkpoint.
    """

    done: int
    total: int
    skipped: int
    elapsed_s: float
    throughput: float
    eta_s: Optional[float]
    benchmark: Optional[str]
    per_benchmark: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    failed: int = 0

    @property
    def remaining(self) -> int:
        return self.total - self.done

    def benchmark_eta_s(self, benchmark: str) -> Optional[float]:
        """Estimated seconds to finish one benchmark's remaining tasks."""
        if self.throughput <= 0.0 or benchmark not in self.per_benchmark:
            return None
        done, total = self.per_benchmark[benchmark]
        return (total - done) / self.throughput


class ProgressPrinter:
    """Renders progress events as single-line updates on a stream.

    Uses carriage-return redraw on TTYs and plain lines (throttled to
    every ``interval`` tasks) otherwise, so logs stay readable under CI.
    """

    def __init__(self, stream: Optional[IO[str]] = None, interval: int = 10):
        self.stream = stream if stream is not None else sys.stderr
        self.interval = max(1, interval)
        self._is_tty = bool(getattr(self.stream, "isatty", lambda: False)())

    def __call__(self, event: ProgressEvent) -> None:
        final = event.done == event.total
        if not self._is_tty and not final and event.done % self.interval:
            return
        eta = f", eta {event.eta_s:.0f}s" if event.eta_s is not None else ""
        skipped = f" ({event.skipped} resumed)" if event.skipped else ""
        failed = f" [{event.failed} failed]" if event.failed else ""
        line = (
            f"[{event.done}/{event.total}]{skipped}{failed} "
            f"{event.throughput:.1f} inj/s{eta}"
        )
        if event.benchmark is not None:
            bench_eta = event.benchmark_eta_s(event.benchmark)
            suffix = (
                f", eta {bench_eta:.0f}s" if bench_eta is not None else ""
            )
            done, total = event.per_benchmark[event.benchmark]
            line += f" | {event.benchmark} {done}/{total}{suffix}"
        if self._is_tty:
            self.stream.write("\r" + line + (" " * 8))
            if final:
                self.stream.write("\n")
        else:
            self.stream.write(line + "\n")
        self.stream.flush()
