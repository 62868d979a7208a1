"""Register Renaming Subsystem arrays and control signals (Figure 1)."""

from repro.core.rrs.checkpoint import CheckpointSlot, CheckpointTable
from repro.core.rrs.free_list import (
    FifoFreeList,
    StackFreeList,
    make_free_list,
)
from repro.core.rrs.ports import RRSObserver
from repro.core.rrs.rat import RegisterAliasTable
from repro.core.rrs.rht import RegisterHistoryTable, RHTEntry
from repro.core.rrs.rob import ReorderBuffer, ROBSlot
from repro.core.rrs.signals import (
    ArmedCorruption,
    ArmedSuppression,
    ArrayName,
    DUPLICATION_SIGNALS,
    EXTENDED_SIGNALS,
    LEAKAGE_SIGNALS,
    SignalFabric,
    SignalKind,
    TABLE_I,
)

__all__ = [
    "ArmedCorruption",
    "ArmedSuppression",
    "ArrayName",
    "CheckpointSlot",
    "CheckpointTable",
    "DUPLICATION_SIGNALS",
    "EXTENDED_SIGNALS",
    "FifoFreeList",
    "LEAKAGE_SIGNALS",
    "RHTEntry",
    "ROBSlot",
    "RRSObserver",
    "RegisterAliasTable",
    "RegisterHistoryTable",
    "ReorderBuffer",
    "SignalFabric",
    "SignalKind",
    "StackFreeList",
    "TABLE_I",
    "make_free_list",
]
