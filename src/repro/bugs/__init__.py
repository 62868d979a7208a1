"""Bug models, injection, classification and campaigns (Section III/IV)."""

from repro.bugs.campaign import (
    CampaignResult,
    InjectionResult,
    run_golden,
    run_injection,
)
from repro.bugs.classify import (
    Classification,
    TIMEOUT_FACTOR,
    classify_run,
    timeout_budget,
)
from repro.bugs.faults import (
    AtRestFault,
    inject_at_rest_fault,
    parity_detected,
    run_with_at_rest_fault,
)
from repro.bugs.injector import arm, draw_spec
from repro.bugs.models import BugModel, BugSpec, PRIMARY_MODELS

__all__ = [
    "BugModel",
    "BugSpec",
    "CampaignResult",
    "Classification",
    "InjectionResult",
    "PRIMARY_MODELS",
    "TIMEOUT_FACTOR",
    "AtRestFault",
    "arm",
    "inject_at_rest_fault",
    "parity_detected",
    "run_with_at_rest_fault",
    "classify_run",
    "draw_spec",
    "run_golden",
    "run_injection",
    "timeout_budget",
]
