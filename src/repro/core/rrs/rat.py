"""Register Alias Table: the speculative logical->physical mapping.

"RAT is a hardware array that keeps the most recent mapping of each logical
register identifier to a PdstID" (Section II). The write port is gated by
the Table I write enable (Figure 2's walkthrough bug lives here) and routes
its data through the fabric's PdstID-corruption hook (the *PdstID
Corruption* bug model corrupts the value "when it is written in the RAT",
Section III.A).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.core.rrs.ports import RRSObserver, listeners
from repro.core.rrs.signals import ArrayName, SignalFabric, SignalKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core <- idld)
    from repro.idld.parity import ParityStore


class RegisterAliasTable:
    """Array of logical-register to PdstID mappings."""

    def __init__(
        self,
        num_logical: int,
        num_physical: int,
        fabric: SignalFabric,
        observers: Sequence[RRSObserver],
        zero_pdst: int = None,
        parity: Optional["ParityStore"] = None,
    ) -> None:
        self.num_logical = num_logical
        #: PdstIDs name registers 0..num_physical-1.
        self.num_physical = num_physical
        self._fabric = fabric
        self.bind(observers)
        self._zero_pdst = zero_pdst
        self._parity = parity
        self._table: List[int] = list(range(num_logical))
        if parity is None:
            # Without parity the read port is a bare array index with no
            # side effects; bind it straight to the list's C-level getitem.
            # Every table update below (including bulk restore/load_state)
            # slice-assigns in place so the binding stays valid.
            self.read = self._table.__getitem__

    def bind(self, observers: Sequence[RRSObserver]) -> None:
        """(Re)build the write-port dispatch lists from ``observers``."""
        self._on_write = listeners(observers, "rat_write")
        self._on_write_zero_idiom = listeners(observers, "rat_write_zero_idiom")
        self._on_write_over_zero = listeners(observers, "rat_write_over_zero")

    def reset(self, initial_mappings: Sequence[int]) -> None:
        """Power-on initialization (logical register i -> mapping[i])."""
        if len(initial_mappings) != self.num_logical:
            raise ValueError("need one initial mapping per logical register")
        self._table[:] = initial_mappings
        if self._parity is not None:
            self._parity.reset()
            for lreg, pdst in enumerate(self._table):
                self._parity.on_write(lreg, pdst)

    def read(self, lreg: int) -> int:
        """Rename-time source lookup (also used to read the evicted id)."""
        value = self._table[lreg]
        if self._parity is not None:
            self._parity.on_read(lreg, value, self._fabric.cycle)
        return value

    def write(self, ldst: int, new_pdst: int) -> int:
        """Update the mapping of ``ldst`` through the regular write port.

        The data passes through the PdstID-corruption hook first; the array
        update itself is gated by the RAT write enable. Returns the value
        that was *driven to* the array (post-corruption) so rename can
        forward it, whether or not the write landed.

        A corruption can drive an identifier no physical register has (the
        register count is not a power of two). That write lands and fires
        its taps like any other, and is recorded as the fabric's
        :attr:`~repro.core.rrs.signals.SignalFabric.undefined_pdst` for
        the core to end the run at the end of the cycle.
        """
        fabric = self._fabric
        if not fabric.hot:
            driven = new_pdst
            landed = True
        else:
            driven = fabric.corrupt_pdst(new_pdst)
            if driven >= self.num_physical:
                fabric.undefined_pdst = driven
            landed = fabric.asserted(ArrayName.RAT, SignalKind.WRITE_ENABLE)
        if landed:
            old = self._table[ldst]
            if self._parity is not None:
                self._parity.on_read(ldst, old, self._fabric.cycle)
            self._table[ldst] = driven
            if self._parity is not None:
                self._parity.on_write(ldst, driven)
            if old == self._zero_pdst:
                # Remapping a shared-zero instance: only the inserted
                # identifier enters the code (the shared id is untracked).
                for hook in self._on_write_over_zero:
                    hook(ldst, driven)
            else:
                for hook in self._on_write:
                    hook(ldst, old, driven)
        return driven

    def write_zero_idiom(self, ldst: int) -> None:
        """Point ``ldst`` at the shared zero register (Section V.E).

        The write itself is gated by the regular write enable; the
        duplicate-marking signal decides how the IDLD taps see it. With the
        mark asserted (normal), only the evicted id is folded; a suppressed
        mark makes the write look like a regular insertion of the shared
        identifier -- the exact bug the paper argues IDLD catches ("if this
        signal, due to a bug, is not activated it will cause IDLD
        assertion").
        """
        if self._zero_pdst is None:
            raise ValueError("zero-idiom elimination is not enabled")
        if self._fabric.asserted(ArrayName.RAT, SignalKind.WRITE_ENABLE):
            old = self._table[ldst]
            if self._parity is not None:
                self._parity.on_read(ldst, old, self._fabric.cycle)
            self._table[ldst] = self._zero_pdst
            if self._parity is not None:
                self._parity.on_write(ldst, self._zero_pdst)
            marked = self._fabric.asserted(ArrayName.RAT, SignalKind.DUP_MARK)
            if old == self._zero_pdst:
                if not marked:
                    # Untagged shared-id insertion over a shared id.
                    for hook in self._on_write_over_zero:
                        hook(ldst, self._zero_pdst)
                return
            if marked:
                for hook in self._on_write_zero_idiom:
                    hook(ldst, old)
            else:
                for hook in self._on_write:
                    hook(ldst, old, self._zero_pdst)

    def restore(self, snapshot: Sequence[int]) -> bool:
        """Recovery-time bulk restore from a checkpoint image.

        Gated by the RAT recovery signal ("Checkpoint to RAT", Table I).
        Returns True when the restore actually happened.
        """
        if self._fabric.asserted(ArrayName.RAT, SignalKind.RECOVERY):
            self._table[:] = snapshot
            if self._parity is not None:
                for lreg, pdst in enumerate(self._table):
                    self._parity.on_write(lreg, pdst)
            return True
        return False

    def corrupt_stored(self, ldst: int, xor_mask: int) -> int:
        """Fault injection: flip stored mapping bits without touching the
        parity bit (an at-rest upset). Returns the corrupted value."""
        if xor_mask == 0:
            raise ValueError("xor_mask must be nonzero")
        self._table[ldst] ^= xor_mask
        return self._table[ldst]

    def snapshot(self) -> List[int]:
        """Copy of the current mapping (checkpoint capture / probes)."""
        return list(self._table)

    # -- warm-start snapshot/restore -----------------------------------------
    #
    # Named save_state/load_state to stay clearly apart from the
    # microarchitectural snapshot()/restore() pair above, which model the
    # checkpoint-capture and signal-gated recovery ports.

    def save_state(self) -> tuple:
        """Snapshot the mapping table for the warm-start layer."""
        return (tuple(self._table),)

    def load_state(self, state: tuple) -> None:
        """Restore a :meth:`save_state` snapshot (not signal-gated)."""
        self._table[:] = state[0]

    @staticmethod
    def split_identifiers(state: tuple) -> Tuple[tuple, List[int]]:
        """Every mapping is an identifier (see
        :meth:`repro.core.uop.Uop.split_identifiers`)."""
        return (), list(state[0])
