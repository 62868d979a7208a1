"""Export campaign results to CSV / JSON for external analysis."""

from __future__ import annotations

import csv
import io
import json
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (analysis <- bugs)
    from repro.bugs.campaign import CampaignResult, InjectionResult

#: Column order of the per-injection CSV.
FIELDS = (
    "benchmark",
    "model",
    "inject_cycle",
    "activated",
    "activation_cycle",
    "outcome",
    "masked",
    "persists",
    "manifestation_cycle",
    "manifestation_latency",
    "final_cycle",
    "idld_cycle",
    "idld_latency",
    "bv_cycle",
    "bv_latency",
    "counter_cycle",
    "eot_detected",
)


def injection_row(record: "InjectionResult") -> Dict[str, object]:
    """Flatten one injection record into primitive columns."""
    return {
        "benchmark": record.benchmark,
        "model": record.spec.model.value,
        "inject_cycle": record.spec.inject_cycle,
        "activated": record.activated,
        "activation_cycle": record.activation_cycle,
        "outcome": record.outcome.value,
        "masked": record.masked,
        "persists": record.persists,
        "manifestation_cycle": record.manifestation_cycle,
        "manifestation_latency": record.manifestation_latency,
        "final_cycle": record.final_cycle,
        "idld_cycle": record.idld_cycle,
        "idld_latency": record.idld_latency,
        "bv_cycle": record.bv_cycle,
        "bv_latency": record.bv_latency,
        "counter_cycle": record.counter_cycle,
        "eot_detected": record.eot_detected,
    }


def to_csv(campaign: "CampaignResult") -> str:
    """The full campaign as a CSV string (one row per injection)."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=FIELDS)
    writer.writeheader()
    for record in campaign.results:
        writer.writerow(injection_row(record))
    return buffer.getvalue()


def to_json(campaign: "CampaignResult") -> str:
    """The campaign plus its figure-level aggregates as JSON."""
    from repro.bugs.models import PRIMARY_MODELS

    payload = {
        "injections": [injection_row(r) for r in campaign.results],
        "aggregates": {
            "coverage": campaign.coverage(),
            "masked_fraction": {
                model.value: campaign.masked_fraction(model=model)
                for model in PRIMARY_MODELS
            },
            "persistence_fraction": campaign.persistence_fraction(),
            "benchmarks": campaign.benchmarks,
        },
        "goldens": {
            name: {"cycles": golden.cycles, "committed": golden.committed}
            for name, golden in campaign.goldens.items()
        },
        # Tasks the execution layer gave up on; absent from "injections"
        # and from every aggregate above, surfaced so consumers can judge
        # whether the sample is still sound.
        "quarantined": [
            {
                "key": record.key,
                "index": record.index,
                "benchmark": record.benchmark,
                "kind": record.failure.kind,
                "attempts": record.failure.attempts,
                "message": record.failure.message,
            }
            for record in campaign.failures
        ],
    }
    return json.dumps(payload, indent=2)


def write_csv(campaign: "CampaignResult", path: str) -> None:
    """Write :func:`to_csv` output to ``path`` atomically (temp file in the
    destination directory + ``os.replace``), so a killed export never
    leaves a half-written figure input."""
    from repro.exec.durability import atomic_write_text

    atomic_write_text(path, to_csv(campaign), newline="")


def campaign_from_checkpoint(path: str) -> "CampaignResult":
    """Rebuild a :class:`CampaignResult` from an engine checkpoint file.

    Results come back in canonical task order (the order an uninterrupted
    serial campaign would have produced), and golden-run summaries are
    restored from the manifest, so every aggregation and export works as
    if the campaign had just run. Quarantined-task ``failure`` records are
    restored onto ``CampaignResult.failures``.
    """
    from repro.bugs.campaign import CampaignResult
    from repro.exec.checkpoint import load_checkpoint_full

    manifest, done, quarantined = load_checkpoint_full(path)
    campaign = CampaignResult()
    for index, result in sorted(done.values(), key=lambda pair: pair[0]):
        campaign.results.append(result)
    campaign.failures = sorted(
        quarantined.values(), key=lambda record: record.index
    )
    # Canonical benchmark order, not file order: a checkpoint rewritten by
    # repair (sort_keys) would otherwise reorder the goldens block of the
    # JSON export relative to a live campaign's.
    campaign.goldens = {
        name: manifest.goldens[name]
        for name in manifest.benchmarks
        if name in manifest.goldens
    }
    for name, golden in manifest.goldens.items():
        campaign.goldens.setdefault(name, golden)
    return campaign


def write_json(campaign: "CampaignResult", path: str) -> None:
    """Write :func:`to_json` output to ``path`` atomically — same guarantee
    as :func:`write_csv`."""
    from repro.exec.durability import atomic_write_text

    atomic_write_text(path, to_json(campaign))
