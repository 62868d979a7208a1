"""Test support utilities (not collected by pytest)."""

from __future__ import annotations

from repro.bugs.campaign import CampaignResult, run_golden
from repro.bugs.models import PRIMARY_MODELS
from repro.core.rrs.ports import RRSObserver
from repro.exec.tasks import execute_task, generate_tasks


def cold_campaign(
    programs, runs_per_model, models=PRIMARY_MODELS, seed=1, config=None,
    max_attempts=6,
) -> CampaignResult:
    """The cold oracle of ``run_engine``: the same task list, each task run
    from power-on to the end against ``run_golden``, with no snapshot."""
    goldens = {
        name: run_golden(program, config) for name, program in programs.items()
    }
    tasks = generate_tasks(
        list(programs), runs_per_model, list(models), seed, max_attempts
    )
    campaign = CampaignResult(goldens=goldens)
    campaign.results = [
        execute_task(
            task, programs[task.benchmark], goldens[task.benchmark], config
        )
        for task in tasks
    ]
    return campaign


class RecordingObserver(RRSObserver):
    """Captures every RRS port event as a tuple for assertions."""

    def __init__(self) -> None:
        self.events = []

    def power_on(self, num_physical, num_logical, initial_free, initial_rat):
        self.events.append(("power_on", num_physical, num_logical))

    def fl_read(self, pdst):
        self.events.append(("fl_read", pdst))

    def fl_write(self, pdst):
        self.events.append(("fl_write", pdst))

    def rat_write(self, ldst, old_pdst, new_pdst):
        self.events.append(("rat_write", ldst, old_pdst, new_pdst))

    def rob_pdst_write(self, pdst, seq):
        self.events.append(("rob_pdst_write", pdst, seq))

    def rob_pdst_read(self, pdst, seq):
        self.events.append(("rob_pdst_read", pdst, seq))

    def recovery_begin(self, cycle):
        self.events.append(("recovery_begin", cycle))

    def recovery_end(self, cycle):
        self.events.append(("recovery_end", cycle))

    def checkpoint_content(self, slot, pos):
        self.events.append(("checkpoint_content", slot, pos))

    def checkpoint_meta(self, slot, pos):
        self.events.append(("checkpoint_meta", slot, pos))

    def checkpoint_restored(self, slot):
        self.events.append(("checkpoint_restored", slot))

    def checkpoint_freed(self, slot):
        self.events.append(("checkpoint_freed", slot))

    def pipeline_empty(self, cycle):
        self.events.append(("pipeline_empty", cycle))

    def cycle_end(self, cycle):
        pass  # too noisy to record

    def of_kind(self, kind):
        return [e for e in self.events if e[0] == kind]
