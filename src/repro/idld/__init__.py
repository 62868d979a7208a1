"""IDLD and the detector zoo it is evaluated against.

* :class:`IDLDChecker` -- the paper's contribution: per-array XOR codes
  with an end-of-cycle zero check (Section V).
* :class:`BitVectorScheme` -- the bit-per-Pdst alternative (Section V.E).
* :class:`CounterScheme` -- the free-counter alternative (Section V.E).
* :func:`end_of_test_check` -- traditional end-of-test validation
  (Figures 9/10 baseline).
"""

from repro.idld.bitvector import BitVectorScheme, BVDetection
from repro.idld.checker import IDLDChecker, Violation
from repro.idld.codes import expected_constant, extend, extension_bit, xor_fold
from repro.idld.counter import CounterDetection, CounterScheme
from repro.idld.endoftest import EndOfTestVerdict, end_of_test_check
from repro.idld.flow import (
    ArmedFlowSuppression,
    FlowInvariantChecker,
    FlowSignalFabric,
    FlowViolation,
)
from repro.idld.parity import ParityAlarm, ParityStore, parity

__all__ = [
    "ArmedFlowSuppression",
    "BVDetection",
    "BitVectorScheme",
    "CounterDetection",
    "CounterScheme",
    "EndOfTestVerdict",
    "FlowInvariantChecker",
    "FlowSignalFabric",
    "FlowViolation",
    "IDLDChecker",
    "ParityAlarm",
    "ParityStore",
    "Violation",
    "end_of_test_check",
    "expected_constant",
    "extend",
    "extension_bit",
    "parity",
    "xor_fold",
]
