"""IDLD: the paper's instantaneous leakage/duplication checker.

The scheme (Section V.B, Figure 6) keeps one XOR register per tracked
array -- FL\\ :sub:`XOR`, RAT\\ :sub:`XOR`, ROB\\ :sub:`XOR` -- each folded
with every PdstID its array's ports insert or remove. The central
invariance is that a PdstID read from one array is written to another by
cycle end, so::

    FLxor ^ RATxor ^ ROBxor == K     (K = 0 for power-of-two Pdst counts)

holds at the end of every cycle outside flush recovery. Each XOR register
is ``pdst_bits + 1`` wide: identifiers are logically extended with a
constant 1 bit so that PdstID 0 is visible to the code (Section V.D).

Flush handling (Section V.C):

* RATxor and ROBxor are checkpointed alongside each RAT checkpoint and
  restored with it; the positive RHT walk then replays through the regular
  RAT port, updating RATxor, while each walk eviction is folded back into
  ROBxor ("the ROBxor is also recovered and walked with the PdstIDs evicted
  from the RAT during positive reclamation").
* Commits fold the reclaimed PdstID out of every *younger* checkpointed
  ROBxor so a later restore reflects entries that already left the ROB
  (a few XOR gates per checkpoint slot in hardware).
* FLxor needs no special handling: negative-walk returns flow through the
  regular FL write port.
* Checks are suspended while the recovery flow is in progress.

Because every XOR update is gated by the same control signal as the array
action it mirrors (the arrays only emit events for actions that actually
happened), a suppressed enable breaks the read/write pairing and the code
goes nonzero in the very cycle the bug perturbs the PdstID flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.rrs.ports import RRSObserver
from repro.idld.codes import expected_constant, extend, extension_bit, xor_fold


@dataclass
class Violation:
    """One detected invariance violation."""

    cycle: int
    fl_xor: int
    rat_xor: int
    rob_xor: int
    syndrome: int

    def __str__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            f"IDLD violation @cycle {self.cycle}: syndrome={self.syndrome:#x} "
            f"(FL={self.fl_xor:#x} RAT={self.rat_xor:#x} ROB={self.rob_xor:#x})"
        )


@dataclass
class _CheckpointMirror:
    """Per-CKPT-slot shadow state: position + checkpointed XORs."""

    pos: int = -1
    rat_xor: int = 0
    rob_xor: int = 0
    valid: bool = False


class IDLDChecker(RRSObserver):
    """The IDLD hardware, as an observer over the RRS ports.

    Attributes:
        enabled: The "chicken bit" (Section V.B): when False the checker
            keeps its XOR state but never raises a violation.
        violations: The first end-of-cycle check failure, or empty. The
            alarm latches: once it holds a record, later checks return
            early, so a syndrome that stays nonzero for the rest of the
            run costs one record, not one per cycle. The XOR registers
            keep tracking port traffic either way.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.fl_xor = 0
        self.rat_xor = 0
        self.rob_xor = 0
        self._ext_bit = 2
        self._expected = 0
        self._in_recovery = False
        self._mirrors: Dict[int, _CheckpointMirror] = {}
        self.violations: List[Violation] = []

    # -- reset -------------------------------------------------------------------

    def power_on(self, num_physical, num_logical, initial_free, initial_rat):
        self._ext_bit = extension_bit(num_physical)
        self._expected = expected_constant(num_physical)
        self.fl_xor = xor_fold(initial_free, self._ext_bit)
        self.rat_xor = xor_fold(initial_rat, self._ext_bit)
        self.rob_xor = 0
        self._in_recovery = False
        self._mirrors = {}
        self.violations = []

    # -- port taps -------------------------------------------------------------------
    # These run on every FL pop/push, RAT write and ROB traffic event;
    # ``extend(p, bit)`` is inlined as ``p | bit`` here because the call
    # overhead itself was a measurable slice of simulation time.

    def fl_read(self, pdst: int) -> None:
        self.fl_xor ^= pdst | self._ext_bit

    def fl_write(self, pdst: int) -> None:
        self.fl_xor ^= pdst | self._ext_bit

    def rat_write(self, ldst: int, old_pdst: int, new_pdst: int) -> None:
        ext_bit = self._ext_bit
        self.rat_xor ^= (old_pdst | ext_bit) ^ (new_pdst | ext_bit)
        if self._in_recovery:
            # Positive-walk reclamation: the evicted PdstID re-enters the
            # recovered ROBxor (Section V.C).
            self.rob_xor ^= old_pdst | ext_bit

    def rat_write_zero_idiom(self, ldst: int, old_pdst: int) -> None:
        # Section V.E: the duplicate-marking signal keeps the shared zero
        # register out of the code; only the eviction is tracked.
        self.rat_xor ^= old_pdst | self._ext_bit
        if self._in_recovery:
            self.rob_xor ^= old_pdst | self._ext_bit

    def rat_write_over_zero(self, ldst: int, new_pdst: int) -> None:
        # The shared zero register leaves the RAT entry: only the inserted
        # identifier is tracked.
        self.rat_xor ^= new_pdst | self._ext_bit

    def rob_pdst_write(self, pdst: int, seq: int) -> None:
        self.rob_xor ^= pdst | self._ext_bit

    def rob_pdst_read(self, pdst: int, seq: int) -> None:
        # Every live checkpointed ROBxor folds the commit-reclaim bus too:
        # for a checkpoint younger than the committing entry this removes an
        # id the capture included; for an older (anchor) checkpoint it
        # pre-compensates the positive walk, which will replay the eviction
        # of this already-committed entry after a restore.
        code = pdst | self._ext_bit
        self.rob_xor ^= code
        for mirror in self._mirrors.values():
            if mirror.valid:
                mirror.rob_xor ^= code

    # -- recovery / checkpoints ----------------------------------------------------------

    def recovery_begin(self, cycle: int) -> None:
        self._in_recovery = True

    def recovery_end(self, cycle: int) -> None:
        # "Cost-effective debugging of multi-cycle RRS flows... by simply
        # checking that IDLD's invariance is maintained after each execution
        # of such flows" (Section V.C): evaluate at the flow boundary itself,
        # so a violation cannot hide between back-to-back recoveries.
        self._in_recovery = False
        self._check(cycle)

    def _mirror(self, slot: int) -> _CheckpointMirror:
        if slot not in self._mirrors:
            self._mirrors[slot] = _CheckpointMirror()
        return self._mirrors[slot]

    def checkpoint_content(self, slot: int, pos: int) -> None:
        mirror = self._mirror(slot)
        mirror.rat_xor = self.rat_xor
        mirror.rob_xor = self.rob_xor
        mirror.pos = pos
        mirror.valid = True

    def checkpoint_meta(self, slot: int, pos: int) -> None:
        # Metadata advances even when the content capture was suppressed by
        # a bug; the stale XORs stay, mirroring the stale RAT image.
        mirror = self._mirror(slot)
        mirror.pos = pos
        mirror.valid = True

    def checkpoint_restored(self, slot: int) -> None:
        mirror = self._mirror(slot)
        self.rat_xor = mirror.rat_xor
        self.rob_xor = mirror.rob_xor

    def checkpoint_freed(self, slot: int) -> None:
        if slot in self._mirrors:
            self._mirrors[slot].valid = False

    # -- the check -----------------------------------------------------------------------

    @property
    def syndrome(self) -> int:
        """Current deviation of the code from the invariant constant."""
        return self.fl_xor ^ self.rat_xor ^ self.rob_xor ^ self._expected

    def cycle_end(self, cycle: int) -> None:
        if self._in_recovery:
            return
        self._check(cycle)

    def _check(self, cycle: int) -> None:
        if self.violations or not self.enabled:
            return
        syndrome = self.syndrome
        if syndrome != 0:
            self.violations.append(
                Violation(cycle, self.fl_xor, self.rat_xor, self.rob_xor, syndrome)
            )

    def fast_forward(
        self, start_cycle: int, end_cycle: int, pipeline_empty: bool
    ) -> None:
        """Closed-form replay of ``cycle_end`` over a skipped quiescent span.

        No port traffic happens in the span, so the XOR registers — and
        therefore the syndrome — are constant across it: per-cycle stepping
        would have latched a :class:`Violation` at the span's first cycle
        (or none), and every later check would have returned early.
        Replaying that in bulk is exact, which is what lets the core keep
        this checker attached while fast-forwarding (see the bulk-replay
        protocol in :mod:`repro.core.rrs.ports`).
        """
        self.cycle_end(start_cycle + 1)

    # -- results ---------------------------------------------------------------------------

    @property
    def detected(self) -> bool:
        return bool(self.violations)

    @property
    def first_detection_cycle(self) -> Optional[int]:
        return self.violations[0].cycle if self.violations else None

    # -- warm-start snapshot/restore -----------------------------------------

    def save_state(self) -> tuple:
        """Snapshot the full checker state (XORs, recovery flag, checkpoint
        mirrors, violations) as plain tuples for the warm-start layer."""
        return (
            self.enabled,
            self.fl_xor,
            self.rat_xor,
            self.rob_xor,
            self._ext_bit,
            self._expected,
            self._in_recovery,
            tuple(
                (slot, m.pos, m.rat_xor, m.rob_xor, m.valid)
                for slot, m in self._mirrors.items()
            ),
            tuple(
                (v.cycle, v.fl_xor, v.rat_xor, v.rob_xor, v.syndrome)
                for v in self.violations
            ),
        )

    def load_state(self, state: tuple) -> None:
        """Restore a :meth:`save_state` snapshot."""
        (
            self.enabled,
            self.fl_xor,
            self.rat_xor,
            self.rob_xor,
            self._ext_bit,
            self._expected,
            self._in_recovery,
            mirrors,
            violations,
        ) = state
        self._mirrors = {
            slot: _CheckpointMirror(pos, rat_xor, rob_xor, valid)
            for slot, pos, rat_xor, rob_xor, valid in mirrors
        }
        self.violations = [Violation(*v) for v in violations]
