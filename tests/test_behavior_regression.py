"""Frozen behavioral goldens across the policy refactor.

The strategy/discipline refactor must be *invisible* at the default
design point: the paper's FIFO free list plus checkpoint+RHT-walk
recovery. These digests were captured on the pre-refactor tree and must
never drift — a change here means default-config campaign outputs are no
longer bit-identical to published results.
"""

import hashlib
import json

from repro.core import OoOCore
from repro.exec.checkpoint import result_to_dict
from repro.exec.engine import run_engine
from repro.workloads import WORKLOADS

from tests.support import RecordingObserver, cold_campaign
from tests.test_recovery_flows import mispredicting_program

#: blake2b-8 of repr(RecordingObserver.events) for the default core on
#: mispredicting_program() — every RRS port event, in order.
CORE_EVENT_DIGEST = "fce5b8dd0c84ca80"

#: blake2b-8 of the sorted-JSON campaign results (wall-clock stripped)
#: for the cold oracle of crc32 @ scale 0.25, runs_per_model=2, seed=7.
#: The payload keeps warm_start_cycles_skipped, which is 0 only on the
#: cold run, so the digest is taken there.
CAMPAIGN_DIGEST = "403626086dc275d1"


def _blake8(payload: bytes) -> str:
    return hashlib.blake2b(payload, digest_size=8).hexdigest()


class TestDefaultCoreUnchanged:
    def test_port_event_stream_digest(self):
        observer = RecordingObserver()
        core = OoOCore(mispredicting_program(), observers=[observer])
        result = core.run()
        assert result.cycles == 1231
        assert result.output == [21]
        assert result.stats["flushes"] == 60
        digest = _blake8(repr(observer.events).encode())
        assert digest == CORE_EVENT_DIGEST


class TestDefaultCampaignUnchanged:
    def test_campaign_result_digest(self):
        programs = {"crc32": WORKLOADS["crc32"](scale=0.25)}
        campaign = cold_campaign(programs, runs_per_model=2, seed=7)
        assert len(campaign.results) == 6
        assert run_engine(programs, 2, seed=7).results == campaign.results
        records = []
        for result in campaign.results:
            record = result_to_dict(result)
            record.pop("sim_wall_ns")  # wall clock: nondeterministic
            # Execution-strategy bookkeeping, not a simulation outcome;
            # keeping it out lets the frozen digest survive schema growth.
            record.pop("early_terminated_cycle")
            records.append(record)
        payload = json.dumps(records, sort_keys=True).encode()
        assert _blake8(payload) == CAMPAIGN_DIGEST
