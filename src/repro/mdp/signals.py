"""Control signals of the Store-Sets MDP tables, with bug injection.

The MDP use case (Section V.F) has its own small signal surface: LFST
insertions at the map stage, LFST removals (at store address computation,
or implicitly when another store displaces the entry), and SSIT training
updates. As in the RRS fabric, a suppressed signal means the action -- and
the IDLD XOR update gated by it -- silently does not happen; the tables
consult :class:`repro.idld.flow.FlowSignalFabric`, as the NoC link does.
"""

from __future__ import annotations

import enum


class MDPSignal(enum.Enum):
    """Injectable MDP control signals."""

    LFST_INSERT = "lfst_insert"
    LFST_REMOVE_EXEC = "lfst_remove_exec"
    LFST_REMOVE_DISPLACE = "lfst_remove_displace"
    SSIT_TRAIN = "ssit_train"
