"""Regression tests for attach-time observer dispatch lists.

The arrays and the core build per-hook listener tuples once at attach time
(:func:`repro.core.rrs.ports.listeners`): an observer that keeps the
base-class no-op for a hook must cost zero calls on that event, while a
partial override must see exactly the event stream a full recorder sees.
"""

from repro.core.cpu import (
    OoOCore,
    disable_stage_profiling,
    enable_stage_profiling,
)
from repro.core.rrs.ports import RRSObserver, listeners, overrides_hook
from repro.workloads import WORKLOADS


class FullRecorder(RRSObserver):
    """Overrides the free-list port hooks, recording the event stream."""

    def __init__(self):
        self.events = []

    def fl_read(self, pdst):
        self.events.append(("fl_read", pdst))

    def fl_write(self, pdst):
        self.events.append(("fl_write", pdst))


class FlReadOnly(RRSObserver):
    """Overrides only fl_read."""

    def __init__(self):
        self.events = []

    def fl_read(self, pdst):
        self.events.append(("fl_read", pdst))


def test_partial_override_sees_identical_event_sequence():
    prog = WORKLOADS["qsort"](scale=0.3)
    full, partial = FullRecorder(), FlReadOnly()
    core = OoOCore(prog, observers=[full, partial])
    result = core.run()
    assert result.halted
    assert partial.events, "run produced no fl_read traffic"
    assert partial.events == [e for e in full.events if e[0] == "fl_read"]


def test_no_override_observer_is_absent_from_dispatch():
    plain = RRSObserver()
    reader = FlReadOnly()
    assert not overrides_hook(plain, "fl_read")
    assert overrides_hook(reader, "fl_read")
    # A base-class no-op never lands in a dispatch list ...
    assert listeners([plain], "fl_read") == ()
    hooks = listeners([plain, reader], "fl_read")
    # ... and a partial override lands only in the hooks it overrides.
    assert len(hooks) == 1
    assert hooks[0].__self__ is reader
    assert listeners([plain, reader], "fl_write") == ()
    assert listeners([plain, reader], "cycle_end") == ()


def test_dispatch_preserves_attach_order():
    a, b = FullRecorder(), FlReadOnly()
    hooks = listeners([a, b], "fl_read")
    assert [h.__self__ for h in hooks] == [a, b]


class CountingObserver(RRSObserver):
    """Counts every call it receives, by hook name, fast-forward replays
    included."""

    def __init__(self):
        self.calls = {}

    def _count(self, hook):
        self.calls[hook] = self.calls.get(hook, 0) + 1

    def fast_forward(self, start_cycle, end_cycle, pipeline_empty):
        self._count("fast_forward")


for _hook in (
    "fl_read", "fl_write", "rat_write", "rat_write_zero_idiom",
    "rat_write_over_zero", "rob_pdst_write", "rob_pdst_read",
    "recovery_begin", "recovery_end", "checkpoint_content",
    "checkpoint_meta", "checkpoint_restored", "checkpoint_freed",
    "pipeline_empty", "flush_initiated", "load_replay", "cycle_end",
):
    setattr(
        CountingObserver, _hook,
        lambda self, *args, _hook=_hook: self._count(_hook),
    )

#: The hook kinds a detached observer must stop receiving; the twin run
#: below checks that each of them still fires after the detach point.
_AFTER_DETACH = (
    "fl_read", "fl_write", "rat_write", "rob_pdst_write", "rob_pdst_read",
    "recovery_begin", "recovery_end", "checkpoint_content",
    "checkpoint_meta", "checkpoint_restored", "checkpoint_freed",
    "pipeline_empty", "cycle_end", "fast_forward",
)


def test_detached_observer_receives_nothing_and_the_run_is_unchanged():
    # basicmath divides, so its long-latency stalls are fast-forwarded.
    prog = WORKLOADS["basicmath"](scale=1)
    detached, twin = CountingObserver(), CountingObserver()
    core = OoOCore(prog, observers=[detached, RRSObserver()])
    other = OoOCore(prog, observers=[twin, RRSObserver()])
    middle = 800
    core.run_cycles(middle)
    other.run_cycles(middle)
    assert core.save_state() == other.save_state()
    core.detach(detached)
    frozen = dict(detached.calls)
    at_detach = dict(twin.calls)
    core.run_cycles(10**6)
    other.run_cycles(10**6)
    assert core.halted and other.halted
    assert detached.calls == frozen
    for hook in _AFTER_DETACH:
        assert twin.calls.get(hook, 0) > at_detach.get(hook, 0), hook
    assert core.save_state() == other.save_state()
    assert core.ff_cycles_skipped == other.ff_cycles_skipped


def test_detach_keeps_a_profiled_cores_timing_wrappers():
    prog = WORKLOADS["qsort"](scale=0.3)
    profile = enable_stage_profiling()
    try:
        first, second = CountingObserver(), CountingObserver()
        core = OoOCore(prog, observers=[first, second])
        core.run_cycles(200)
        core.detach(first)
        assert "_commit_stage" in vars(core) and "step" in vars(core)
        assert [hook.__name__ for hook in core._on_cycle_end] == ["timed"]
        observed = profile["observer"]
        cycles = second.calls["cycle_end"]
        core.run_cycles(400)
        assert second.calls["cycle_end"] > cycles
        assert profile["observer"] > observed
    finally:
        disable_stage_profiling()
