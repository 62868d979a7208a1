"""Store-Sets memory dependence predictor and its IDLD use case (Sec V.F)."""

from repro.mdp.idld import (
    CheckpointedMDPChecker,
    MDPIDLDChecker,
    MDPViolation,
)
from repro.mdp.pipeline import MDPPipeline, MDPRunResult, MemOp, make_stream
from repro.mdp.signals import MDPSignal
from repro.mdp.store_sets import (
    LFSTEntry,
    MDPObserver,
    SSITEntry,
    StoreSetsPredictor,
)

__all__ = [
    "CheckpointedMDPChecker",
    "LFSTEntry",
    "MDPIDLDChecker",
    "MDPObserver",
    "MDPPipeline",
    "MDPRunResult",
    "MDPSignal",
    "MDPViolation",
    "MemOp",
    "SSITEntry",
    "StoreSetsPredictor",
    "make_stream",
]
