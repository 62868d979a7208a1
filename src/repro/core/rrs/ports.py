"""Observer interface over the RRS array ports.

Detectors (IDLD, the bit-vector scheme, ...) attach to the core as
:class:`RRSObserver` instances. Arrays notify observers **only for port
actions that actually happened** -- an action whose control signal was
de-asserted (by a bug) produces no event, exactly as the gated XOR-update
hardware of the paper would behave.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Tuple


class RRSObserver:
    """Base class: every hook is a no-op; detectors override what they need.

    Event vocabulary (all PdstIDs are raw, unextended identifiers):

    * ``fl_read`` / ``fl_write`` -- Free List allocation / reclamation port.
    * ``rat_write`` -- RAT update through the regular write port; carries
      the evicted (old) and inserted (new) mapping.
    * ``rob_pdst_write`` / ``rob_pdst_read`` -- the ROB's evicted-PdstID
      field, written at rename and read at commit; ``seq`` is the global
      rename sequence number of the owning instruction.
    * ``recovery_begin`` / ``recovery_end`` -- brackets of the multi-cycle
      flush-recovery flow; invariance checks are suspended in between
      (Section V.C).
    * ``checkpoint_content`` -- the CKPT slot captured the live RAT (the
      checkpoint signal was asserted); detectors snapshot their own state.
    * ``checkpoint_meta`` -- the slot's position metadata advanced; emitted
      even when the content capture was suppressed by a bug.
    * ``checkpoint_restored`` -- the RAT recovery signal fired and the slot
      was copied back into the RAT.
    * ``checkpoint_freed`` -- the slot was released (retired or squashed).
    * ``pipeline_empty`` -- no instruction in flight this cycle (used by the
      bit-vector scheme's leakage probe).
    * ``flush_initiated`` -- a mispredicted branch won flush arbitration;
      carries how many younger in-flight uops were squashed (used by the
      fuzzing coverage probe, :mod:`repro.fuzz.coverage`).
    * ``load_replay`` -- a load could not issue because an older store's
      address was still unknown and will retry next cycle (the LSQ replay
      pressure signal).
    * ``cycle_end`` -- end-of-cycle synchronization point where invariance
      is evaluated.
    """

    def power_on(
        self,
        num_physical: int,
        num_logical: int,
        initial_free: list,
        initial_rat: list,
    ) -> None:
        """Core reset: logical register i -> ``initial_rat[i]``; the ids in
        ``initial_free`` populate the Free List."""

    def fl_read(self, pdst: int) -> None:
        """A PdstID left the Free List through its read port."""

    def fl_write(self, pdst: int) -> None:
        """A PdstID entered the Free List through its write port."""

    def rat_write(self, ldst: int, old_pdst: int, new_pdst: int) -> None:
        """RAT[ldst] was overwritten: ``old_pdst`` evicted, ``new_pdst`` in."""

    def rat_write_zero_idiom(self, ldst: int, old_pdst: int) -> None:
        """RAT[ldst] was pointed at the shared zero register with the
        duplicate-marking signal asserted (Section V.E): only the evicted
        ``old_pdst`` is tracked; the shared identifier is invisible to the
        code by design."""

    def rat_write_over_zero(self, ldst: int, new_pdst: int) -> None:
        """RAT[ldst] held the shared zero register and was remapped to
        ``new_pdst``: only the inserted identifier is tracked."""

    def rob_pdst_write(self, pdst: int, seq: int) -> None:
        """An evicted PdstID was recorded in the ROB entry of ``seq``."""

    def rob_pdst_read(self, pdst: int, seq: int) -> None:
        """An evicted PdstID was read out of the ROB at commit of ``seq``."""

    def recovery_begin(self, cycle: int) -> None:
        """A pipeline-flush recovery flow started."""

    def recovery_end(self, cycle: int) -> None:
        """The recovery flow finished; checking may resume."""

    def checkpoint_content(self, slot: int, pos: int) -> None:
        """CKPT ``slot`` captured the RAT as of rename sequence ``pos``."""

    def checkpoint_meta(self, slot: int, pos: int) -> None:
        """CKPT ``slot``'s position metadata was set to ``pos``."""

    def checkpoint_restored(self, slot: int) -> None:
        """CKPT ``slot`` was copied back into the RAT."""

    def checkpoint_freed(self, slot: int) -> None:
        """CKPT ``slot`` was released."""

    def pipeline_empty(self, cycle: int) -> None:
        """The pipeline holds no in-flight instruction this cycle."""

    def flush_initiated(self, cycle: int, offender_seq: int, squashed: int) -> None:
        """A flush began at ``cycle``: ``squashed`` uops younger than
        ``offender_seq`` were discarded across the front end, scheduler,
        execution units and ROB."""

    def load_replay(self, cycle: int, seq: int) -> None:
        """The load with rename sequence ``seq`` was held back by an
        unresolved older store and will replay."""

    def cycle_end(self, cycle: int) -> None:
        """All port traffic for ``cycle`` has been delivered."""

    # Bulk-replay protocol (quiescence-aware fast-forward)
    # ----------------------------------------------------
    #
    # The core may skip a span of cycles it can prove are no-ops: no port
    # traffic, no state change, only the per-cycle ``pipeline_empty`` /
    # ``cycle_end`` hooks would have fired. An observer that overrides
    # either of those hooks *may additionally* define::
    #
    #     def fast_forward(self, start_cycle, end_cycle, pipeline_empty):
    #
    # which must leave the observer in exactly the state a per-cycle
    # replay would: for every cycle c in (start_cycle, end_cycle], first
    # ``pipeline_empty(c)`` (iff the flag is set), then ``cycle_end(c)``.
    # The method is deliberately **not** defined on this base class: its
    # absence is the conservative signal. Any attached observer that
    # overrides a per-cycle hook without providing ``fast_forward``
    # disables skipping for that core entirely (today's per-cycle
    # behavior), so an unproven listener can never change an outcome.


def overrides_hook(observer: RRSObserver, hook: str) -> bool:
    """True when ``observer``'s class overrides the named base-class hook."""
    return getattr(type(observer), hook) is not getattr(RRSObserver, hook)


def listeners(
    observers: Iterable[RRSObserver], hook: str
) -> Tuple[Callable[..., None], ...]:
    """Bound methods of the observers that actually override ``hook``.

    Arrays and the core build these dispatch lists when the observer set
    is fixed (at construction, and again at ``OoOCore.detach``), so the
    per-event hot path calls only real handlers: an observer that keeps
    the base-class no-op for a hook costs zero calls on that event, and an
    empty tuple short-circuits the dispatch entirely.
    """
    out: List[Callable[..., None]] = []
    for obs in observers:
        if overrides_hook(obs, hook):
            out.append(getattr(obs, hook))
    return tuple(out)
