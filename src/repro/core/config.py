"""Core configuration.

Defaults mirror the RRS configuration of the paper's Section VI.A: 128
physical registers (which size the Free List and the Register History Table
at 128 entries each), a 96-entry ReOrder Buffer, a 32-entry Register Alias
Table and 4 RAT checkpoints. Rename width defaults to 4 (the paper sweeps
1/2/4/6/8 for the RTL study; the bug-modeling study uses a superscalar
configuration).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Dict

from repro.isa.instructions import NUM_LOGICAL_REGS, Opcode

#: Execution latency (cycles) per opcode; anything absent defaults to 1.
DEFAULT_LATENCIES: Dict[Opcode, int] = {
    Opcode.MUL: 3,
    Opcode.DIV: 12,
    Opcode.REM: 12,
    Opcode.LD: 2,
    Opcode.ST: 1,
}

#: Free-list disciplines the core can instantiate (see core/rrs/free_list.py).
FREE_LIST_DISCIPLINES = ("fifo", "stack")

#: Flush-recovery strategies the core can instantiate (see core/recovery.py).
RECOVERY_STRATEGIES = ("checkpoint", "rob-walk", "checkpoint-free")


@dataclass
class CoreConfig:
    """Static configuration of the out-of-order core and its RRS.

    Attributes:
        width: Superscalar width used for fetch, rename and commit.
        issue_width: Maximum instructions issued to execution per cycle.
        num_physical_regs: Size of the merged physical register file; also
            sizes the FL and RHT per the paper.
        rob_entries: ReOrder Buffer capacity.
        num_checkpoints: RAT checkpoint slots (CKPT table size).
        checkpoint_interval: A checkpoint is taken every this many ROB
            allocations ("at every fixed number of ROB entry allocations").
        issue_queue_entries: Scheduler capacity.
        fetch_buffer_entries: Decoded-instruction buffer between fetch and
            rename.
        store_queue_entries: In-flight store capacity.
        recovery_walk_width: RHT entries processed per cycle during the
            positive/negative recovery walks (flush recovery is multi-cycle,
            Section V.C).
        memory_limit: First illegal data address; committed accesses at or
            beyond it raise :class:`repro.core.errors.MemoryFault`.
        latencies: Per-opcode execute latencies.
        predictor_entries: Branch predictor 2-bit-counter table size.
        deadlock_cycles: Declare deadlock after this many cycles without a
            commit or a flush while instructions are in flight.
    """

    width: int = 4
    issue_width: int = 0  # 0 -> same as width
    num_physical_regs: int = 128
    rob_entries: int = 96
    num_checkpoints: int = 4
    checkpoint_interval: int = 24
    issue_queue_entries: int = 48
    fetch_buffer_entries: int = 16
    store_queue_entries: int = 24
    recovery_walk_width: int = 4
    memory_limit: int = 1 << 20
    latencies: Dict[Opcode, int] = field(
        default_factory=lambda: dict(DEFAULT_LATENCIES)
    )
    predictor_kind: str = "gshare"  # "gshare" | "bimodal"
    predictor_entries: int = 1024
    predictor_history_bits: int = 10
    deadlock_cycles: int = 20_000
    #: Section V.E optimization: rename zero idioms (``li rd, 0`` and
    #: ``xor rd, rs, rs``) to a shared hardwired-zero register instead of
    #: allocating a Pdst. The RAT asserts a duplicate-marking signal so
    #: IDLD skips the shared identifier; suppressing that signal is itself
    #: an injectable bug the checker must catch.
    zero_idiom_elimination: bool = False
    #: Free List organization: "fifo" (the paper's circular queue) or
    #: "stack" (LIFO reuse, as in several real cores). Purely a policy
    #: axis -- the detectors must work unchanged on either.
    free_list_discipline: str = "fifo"
    #: Flush-recovery scheme: "checkpoint" (RAT restore + RHT walks, the
    #: paper's design), "rob-walk" (unwind squashed ROB entries youngest
    #: first), or "checkpoint-free" (drain older work, then unwind --
    #: recovery without the CKPT restore path).
    recovery_strategy: str = "checkpoint"

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        if self.issue_width <= 0:
            self.issue_width = self.width
        if self.issue_width > self.width:
            raise ValueError(
                f"issue_width {self.issue_width} exceeds width {self.width}; "
                "the scheduler cannot issue more than one rename group per "
                "cycle (set issue_width=0 to track width)"
            )
        if self.num_physical_regs <= NUM_LOGICAL_REGS:
            raise ValueError(
                "need more physical than logical registers "
                f"({self.num_physical_regs} <= {NUM_LOGICAL_REGS})"
            )
        if self.rob_entries < self.width:
            raise ValueError("ROB must hold at least one rename group")
        if self.num_checkpoints < 1:
            raise ValueError("need at least one checkpoint slot")
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be positive")
        for name in (
            "issue_queue_entries",
            "fetch_buffer_entries",
            "store_queue_entries",
            "recovery_walk_width",
            "memory_limit",
            "predictor_entries",
            "predictor_history_bits",
            "deadlock_cycles",
        ):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.predictor_kind not in ("gshare", "bimodal"):
            raise ValueError(f"unknown predictor kind {self.predictor_kind!r}")
        if self.free_list_discipline not in FREE_LIST_DISCIPLINES:
            raise ValueError(
                f"unknown free_list_discipline "
                f"{self.free_list_discipline!r}; "
                f"choose one of {FREE_LIST_DISCIPLINES}"
            )
        if self.recovery_strategy not in RECOVERY_STRATEGIES:
            raise ValueError(
                f"unknown recovery_strategy {self.recovery_strategy!r}; "
                f"choose one of {RECOVERY_STRATEGIES}"
            )
        # The RHT must be able to hold every in-flight instruction plus the
        # committed-but-unreclaimed tail behind the anchor checkpoint.
        min_rht = self.rob_entries + self.checkpoint_interval
        if self.rht_entries < min_rht:
            raise ValueError(
                f"RHT too small: {self.rht_entries} < rob_entries + "
                f"checkpoint_interval = {min_rht}"
            )

    @property
    def rht_entries(self) -> int:
        """RHT capacity; sized by the physical register count per the paper."""
        return self.num_physical_regs

    @property
    def free_list_entries(self) -> int:
        """FL capacity; sized by the physical register count per the paper."""
        return self.num_physical_regs

    @property
    def pdst_bits(self) -> int:
        """Bits needed to encode one PdstID."""
        return max(1, (self.num_physical_regs - 1).bit_length())

    @property
    def zero_pdst(self):
        """The hardwired-zero register id, or None when the optimization is
        off. It sits outside the tracked token set {0..num_physical-1}."""
        if self.zero_idiom_elimination:
            return self.num_physical_regs
        return None

    # -- canonical (de)serialization -----------------------------------------
    #
    # The single source of truth for a *design point*: task construction,
    # campaign/fuzz checkpoint manifests, fuzz repro artifacts and the
    # sweep CLI all round-trip configurations through these two methods.

    def to_dict(self) -> Dict[str, object]:
        """Serialize every constructor field as JSON-safe plain data.

        ``latencies`` becomes ``{opcode name: cycles}`` in opcode-name
        order; ``issue_width`` is emitted resolved (never the 0 sentinel),
        so a round trip compares equal.
        """
        data = {}
        for spec in fields(self):
            if spec.name == "latencies":
                continue
            data[spec.name] = getattr(self, spec.name)
        data["latencies"] = {
            op.value: cycles for op, cycles in sorted(
                self.latencies.items(), key=lambda item: item[0].value
            )
        }
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CoreConfig":
        """Rebuild a configuration from :meth:`to_dict` output.

        Unknown keys are ignored (a newer writer's file still loads) and
        absent keys fall back to the dataclass defaults (an older file
        predating an axis loads as that axis's default).
        """
        known = {spec.name for spec in fields(cls)}
        kwargs = {
            name: value
            for name, value in data.items()
            if name in known and name != "latencies"
        }
        if data.get("latencies") is not None:
            kwargs["latencies"] = {
                Opcode(name): int(cycles)
                for name, cycles in data["latencies"].items()
            }
        return cls(**kwargs)

    def digest(self) -> str:
        """Stable short hash of the design point (identity checks)."""
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.blake2b(payload.encode(), digest_size=8).hexdigest()


def paper_rrs_config(
    width: int = 4,
    free_list_discipline: str = "fifo",
    recovery_strategy: str = "checkpoint",
) -> CoreConfig:
    """The exact RRS geometry of the paper's Section VI.A at a given width.

    The two policy axes default to the paper's design (FIFO free list,
    checkpoint-restore recovery); the sweep CLI varies them per cell.
    """
    return CoreConfig(
        width=width,
        num_physical_regs=128,
        rob_entries=96,
        num_checkpoints=4,
        checkpoint_interval=24,
        free_list_discipline=free_list_discipline,
        recovery_strategy=recovery_strategy,
    )
