"""The distributed campaign fabric: leases, heartbeats, merge, survival.

Every scenario drives the real :class:`~repro.exec.fabric.FabricCoordinator`
(mostly on an injectable fake clock, so lease expiry is exact rather than
sleep-based) with real shard checkpoints produced by the real engine, and
asserts the fabric contract: silent workers lose their leases, shards are
reassigned with backoff and quarantined after distinct-worker failures,
drains are uncharged and resumable via ``skip_keys``, uploads are
CRC-verified and idempotent, and the continuously-merged artifact is
byte-identical to a single-process campaign no matter the arrival order.
"""

from __future__ import annotations

import json
import os
import threading
import zlib

import pytest

from repro.bugs.models import PRIMARY_MODELS
from repro.exec.cli import checkpoint_main
from repro.exec.durability import (
    GracefulShutdown,
    fold_checkpoint,
    manifest_identity,
    seal_record,
)
from repro.exec.engine import run_engine
from repro.exec.fabric import (
    DONE,
    LEASED,
    PENDING,
    QUARANTINED,
    CampaignSpec,
    FabricCoordinator,
    FabricError,
    FabricPolicy,
    FabricWorker,
    HttpTransport,
    LocalTransport,
    make_http_server,
)
from repro.workloads import WORKLOADS

RUNS = 2  # 2 runs x 3 models x 1 benchmark = 6 tasks -> 3 shards of 2
SEED = 7
SCALE = 0.25
SHARD = 2

SPEC = CampaignSpec(
    benchmarks=("bitcount",),
    runs_per_model=RUNS,
    seed=SEED,
    scale=SCALE,
    shard_size=SHARD,
)


@pytest.fixture(scope="module")
def programs():
    return {"bitcount": WORKLOADS["bitcount"](scale=SCALE)}


@pytest.fixture(scope="module")
def serial_checkpoint(programs, tmp_path_factory):
    """The single-process reference campaign and its checkpoint."""
    path = str(tmp_path_factory.mktemp("fabric") / "serial.jsonl")
    campaign = run_engine(programs, RUNS, seed=SEED, checkpoint_path=path)
    return path, campaign


@pytest.fixture(scope="module")
def shard_uploads(programs, tmp_path_factory):
    """key-tuple -> sealed shard-checkpoint bytes, produced by the real
    engine with ``shard_keys`` (cached: each distinct shard runs once)."""
    root = tmp_path_factory.mktemp("shards")
    cache = {}

    def produce(keys):
        keys = tuple(keys)
        if keys not in cache:
            path = str(root / f"shard-{len(cache)}.jsonl")
            run_engine(
                programs,
                RUNS,
                seed=SEED,
                checkpoint_path=path,
                shard_keys=list(keys),
            )
            with open(path, "rb") as handle:
                cache[keys] = handle.read()
        return cache[keys]

    return produce


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_coordinator(tmp_path, name="state", **policy_kwargs):
    clock = FakeClock()
    defaults = dict(lease_ttl_s=60.0, reassign_backoff_base_s=0.0)
    defaults.update(policy_kwargs)
    coordinator = FabricCoordinator(
        str(tmp_path / name), policy=FabricPolicy(**defaults), clock=clock
    )
    coordinator.submit(SPEC.to_dict())
    return coordinator, clock


def upload(coordinator, worker, lease, data):
    return coordinator.upload(
        worker, lease["shard"], lease["token"], data,
        zlib.crc32(data) & 0xFFFFFFFF,
    )


# -- campaign spec -------------------------------------------------------------


def test_spec_roundtrips_and_validates():
    assert CampaignSpec.from_dict(SPEC.to_dict()) == SPEC
    with pytest.raises(ValueError):
        CampaignSpec(benchmarks=(), runs_per_model=1)
    with pytest.raises(ValueError):
        CampaignSpec(benchmarks=("bitcount",), runs_per_model=-1)
    with pytest.raises(ValueError):
        CampaignSpec(benchmarks=("bitcount",), runs_per_model=1, shard_size=0)
    with pytest.raises(ValueError):
        CampaignSpec(
            benchmarks=("bitcount",), runs_per_model=1,
            models=("Not A Model",),
        )


def test_spec_identity_matches_real_engine_manifests(serial_checkpoint):
    """The coordinator's precomputed identity must equal what the engine
    actually stamps into (shard) checkpoints, or every upload would be
    refused as foreign."""
    path, _ = serial_checkpoint
    report, _, _ = fold_checkpoint(path)
    assert manifest_identity(report.manifest) == (
        SPEC.expected_manifest_identity()
    )


# -- engine shard filter -------------------------------------------------------


def test_engine_shard_keys_runs_subset_with_campaign_manifest(
    programs, serial_checkpoint, tmp_path
):
    _, campaign = serial_checkpoint
    tasks = SPEC.tasks()
    keys = [task.key for task in tasks[2:4]]
    path = str(tmp_path / "shard.jsonl")
    shard = run_engine(
        programs, RUNS, seed=SEED, checkpoint_path=path, shard_keys=keys
    )
    assert [r.spec for r in shard.results] == [
        r.spec for r in campaign.results[2:4]
    ]
    report, done, _ = fold_checkpoint(path)
    assert sorted(done) == sorted(keys)
    # The manifest still describes the whole campaign (merge identity).
    assert report.manifest["benchmarks"] == list(SPEC.benchmarks)
    assert report.manifest["runs_per_model"] == RUNS


def test_engine_shard_keys_rejects_unknown_keys(programs):
    with pytest.raises(ValueError, match="shard keys not in this campaign"):
        run_engine(programs, RUNS, seed=SEED, shard_keys=["bitcount/Nope/0"])


# -- leases: expiry, reassignment, backoff -------------------------------------


def test_lease_expiry_reassigns_and_heartbeat_reports_loss(tmp_path):
    coordinator, clock = make_coordinator(tmp_path)
    lease = coordinator.request("w1")["lease"]
    assert lease is not None and lease["shard"] == 0

    # A renewed lease survives any number of TTLs.
    for _ in range(3):
        clock.advance(59.0)
        assert coordinator.heartbeat("w1", lease["shard"], lease["token"])

    # Silence for one TTL: the lease is gone, the shard reassigned.
    clock.advance(61.0)
    assert not coordinator.heartbeat("w1", lease["shard"], lease["token"])
    taken = coordinator.request("w2")["lease"]
    assert taken is not None and taken["shard"] == 0
    assert taken["token"] != lease["token"]
    shard = coordinator.shards[0]
    assert shard.failed_workers == {"w1"}  # silence is charged


def test_reassignment_backoff_gates_the_next_grant(tmp_path):
    coordinator, clock = make_coordinator(
        tmp_path, reassign_backoff_base_s=10.0, backoff_jitter=0.0
    )
    lease = coordinator.request("w1")["lease"]
    clock.advance(61.0)  # expire it
    # Inside the backoff window shard 0 is gated; the next shard is
    # handed out instead.
    deferred = coordinator.request("w2")["lease"]
    assert deferred is not None and deferred["shard"] == 1
    clock.advance(10.0)  # base * 2^(grants-1) = 10s after first grant
    regrant = coordinator.request("w3")["lease"]
    assert regrant is not None and regrant["shard"] == 0


def test_stale_token_cannot_heartbeat_or_release_anothers_lease(tmp_path):
    coordinator, clock = make_coordinator(tmp_path)
    stale = coordinator.request("w1")["lease"]
    clock.advance(61.0)
    fresh = coordinator.request("w2")["lease"]
    assert fresh["shard"] == stale["shard"]
    assert not coordinator.heartbeat("w1", stale["shard"], stale["token"])
    coordinator.release("w1", stale["shard"], stale["token"], "failed")
    assert coordinator.shards[0].state == LEASED  # w2's lease untouched
    assert coordinator.shards[0].lease_worker == "w2"


# -- poison shards -------------------------------------------------------------


def test_shard_failing_on_distinct_workers_is_quarantined(tmp_path):
    coordinator, clock = make_coordinator(tmp_path, quarantine_after=3)
    for worker in ("w1", "w2", "w3"):
        lease = coordinator.request(worker)["lease"]
        assert lease is not None and lease["shard"] == 0
        coordinator.release(
            worker, lease["shard"], lease["token"], "failed", reason="boom"
        )
    shard = coordinator.shards[0]
    assert shard.state == QUARANTINED
    assert shard.failed_workers == {"w1", "w2", "w3"}
    # Quarantined shards are never handed out again.
    assert coordinator.request("w4")["lease"]["shard"] == 1
    status = coordinator.status()
    assert status["quarantined_shards"] == [
        {"shard": 0, "failed_on": ["w1", "w2", "w3"], "last_failure": "boom"}
    ]


def test_repeat_failures_from_one_worker_do_not_quarantine(tmp_path):
    coordinator, clock = make_coordinator(tmp_path, quarantine_after=3)
    for _ in range(5):
        lease = coordinator.request("w1")["lease"]
        assert lease is not None and lease["shard"] == 0
        coordinator.release(
            "w1", lease["shard"], lease["token"], "failed",
            reason="no such workdir",
        )
    assert coordinator.shards[0].state == PENDING
    assert coordinator.shards[0].failed_workers == {"w1"}
    # A bouncing-but-not-quarantined shard is diagnosable from status.
    failing = coordinator.status()["failing_shards"]
    assert [f["shard"] for f in failing] == [0]
    assert failing[0]["failed_on"] == ["w1"]
    assert failing[0]["last_failure"] == "no such workdir"


def test_campaign_finishes_around_a_quarantined_shard(
    tmp_path, shard_uploads
):
    coordinator, clock = make_coordinator(tmp_path, quarantine_after=1)
    poison = coordinator.request("w-poison")["lease"]
    coordinator.release(
        "w-poison", poison["shard"], poison["token"], "failed"
    )
    assert coordinator.shards[poison["shard"]].state == QUARANTINED
    while True:
        response = coordinator.request("w-good")
        lease = response["lease"]
        if lease is None:
            assert response["done"]
            break
        result = upload(
            coordinator, "w-good", lease, shard_uploads(lease["keys"])
        )
        assert result["ok"]
        coordinator.release(
            "w-good", lease["shard"], lease["token"], "complete"
        )
    assert coordinator.campaign_done()
    status = coordinator.status()
    assert status["state"] == "done"
    assert status["done_tasks"] == status["total_tasks"] - SHARD


# -- graceful drain ------------------------------------------------------------


def test_drain_is_uncharged_and_successor_skips_merged_keys(
    tmp_path, shard_uploads
):
    coordinator, clock = make_coordinator(tmp_path)
    lease = coordinator.request("w1")["lease"]
    # The drained worker finished one of the shard's two tasks and
    # uploads that sealed partial before releasing.
    partial = upload(
        coordinator, "w1", lease, shard_uploads(lease["keys"][:1])
    )
    assert partial["ok"] and partial["new_records"] == 1
    coordinator.release("w1", lease["shard"], lease["token"], "drain")
    shard = coordinator.shards[lease["shard"]]
    assert shard.state == PENDING
    assert not shard.failed_workers  # a drain never counts toward poison

    successor = coordinator.request("w2")["lease"]
    assert successor["shard"] == lease["shard"]
    assert successor["skip_keys"] == lease["keys"][:1]
    done = upload(
        coordinator, "w2", successor, shard_uploads(successor["keys"][1:])
    )
    assert done["ok"]
    assert coordinator.shards[lease["shard"]].state == DONE


def test_worker_drains_on_shutdown_latch_and_uploads_partial(
    tmp_path, programs
):
    """A FabricWorker whose shutdown latch fires mid-campaign must stop
    requesting leases, upload what it completed, and release with a
    ``drain`` (the lease must not be charged)."""
    coordinator, clock = make_coordinator(tmp_path)
    transport = LocalTransport(coordinator)
    shutdown = GracefulShutdown()
    shutdown.request()  # latched before the first lease: nothing runs
    worker = FabricWorker(
        transport, worker_id="w-drain", workdir=str(tmp_path)
    )
    assert worker.run(shutdown) == 0
    assert coordinator.status()["done_tasks"] == 0
    assert all(shard.state == PENDING for shard in coordinator.shards)


# -- uploads: verification and idempotence -------------------------------------


def test_upload_rejects_transfer_corruption(tmp_path, shard_uploads):
    coordinator, clock = make_coordinator(tmp_path)
    lease = coordinator.request("w1")["lease"]
    data = shard_uploads(lease["keys"])
    crc = zlib.crc32(data) & 0xFFFFFFFF
    refused = coordinator.upload(
        "w1", lease["shard"], lease["token"], data + b"garbage", crc
    )
    assert not refused["ok"] and "CRC" in refused["reason"]
    # The retry with intact bytes succeeds; the shard completes.
    assert coordinator.upload(
        "w1", lease["shard"], lease["token"], data, crc
    )["ok"]


def test_upload_rejects_foreign_campaign_and_interior_damage(
    tmp_path, shard_uploads
):
    coordinator, clock = make_coordinator(tmp_path)
    lease = coordinator.request("w1")["lease"]
    data = shard_uploads(lease["keys"])

    lines = data.decode().splitlines()
    manifest = json.loads(lines[0])
    manifest["seed"] = SEED + 1  # a different campaign
    manifest["identity"] = manifest_identity(manifest)
    foreign = "\n".join(
        [json.dumps(seal_record(manifest), sort_keys=True)] + lines[1:]
    ).encode() + b"\n"
    refused = upload(coordinator, "w1", lease, foreign)
    assert not refused["ok"] and "does not match" in refused["reason"]

    corrupt = "\n".join(
        [lines[0], lines[1][:-10] + '"corrupt!"}', lines[2]]
    ).encode() + b"\n"
    refused = upload(coordinator, "w1", lease, corrupt)
    assert not refused["ok"] and "interior corruption" in refused["reason"]
    assert coordinator.status()["done_tasks"] == 0


def test_duplicate_and_late_uploads_are_idempotent(tmp_path, shard_uploads):
    coordinator, clock = make_coordinator(tmp_path)
    lease = coordinator.request("w1")["lease"]
    data = shard_uploads(lease["keys"])
    assert upload(coordinator, "w1", lease, data)["new_records"] == SHARD
    # Same bytes again (a retry after a lost response): nothing new.
    assert upload(coordinator, "w1", lease, data)["new_records"] == 0
    with open(coordinator.artifact_path, "rb") as handle:
        first = handle.read()
    # A late upload under an expired lease is still accepted, still a no-op.
    clock.advance(120.0)
    assert upload(coordinator, "w1", lease, data)["new_records"] == 0
    with open(coordinator.artifact_path, "rb") as handle:
        assert handle.read() == first


# -- merge determinism ---------------------------------------------------------


def overlapping_shards(shard_uploads):
    tasks = SPEC.tasks()
    keys = [task.key for task in tasks]
    return (
        tuple(keys[:4]),  # shards overlap on keys[2:4]
        tuple(keys[2:]),
    )


def test_coordinator_merge_is_arrival_order_independent(
    tmp_path, shard_uploads, serial_checkpoint
):
    _, campaign = serial_checkpoint
    first, second = overlapping_shards(shard_uploads)
    artifacts = []
    for name, order in (("ab", (first, second)), ("ba", (second, first))):
        coordinator, _ = make_coordinator(tmp_path, name=name)
        for keys in order:
            coordinator.upload(
                "w", 0, None, shard_uploads(keys),
                zlib.crc32(shard_uploads(keys)) & 0xFFFFFFFF,
            )
        assert coordinator.campaign_done()
        with open(coordinator.artifact_path, "rb") as handle:
            artifacts.append(handle.read())
    assert artifacts[0] == artifacts[1], (
        "the merged artifact must not depend on upload arrival order"
    )
    from repro.analysis.export import campaign_from_checkpoint, to_csv

    merged = campaign_from_checkpoint(
        str(tmp_path / "ab" / "merged.jsonl")
    )
    assert to_csv(merged) == to_csv(campaign)


def test_cli_merge_overlap_is_argument_order_independent(
    tmp_path, shard_uploads, serial_checkpoint
):
    """``repro checkpoint merge`` with overlapping shards: records for the
    same key are identical across shards, so either argument order must
    produce byte-identical output — and a result must beat a failure for
    its key regardless of which file came first."""
    path, _ = serial_checkpoint
    first, second = overlapping_shards(shard_uploads)
    shard_a = str(tmp_path / "a.jsonl")
    shard_b = str(tmp_path / "b.jsonl")
    with open(shard_a, "wb") as handle:
        handle.write(shard_uploads(first))
    with open(shard_b, "wb") as handle:
        handle.write(shard_uploads(second))

    outputs = []
    for name, order in (
        ("ab.jsonl", [shard_a, shard_b]),
        ("ba.jsonl", [shard_b, shard_a]),
    ):
        out = str(tmp_path / name)
        assert checkpoint_main(["merge", "-o", out] + order) == 0
        assert checkpoint_main(["verify", out]) == 0
        with open(out, "rb") as handle:
            outputs.append(handle.read())
    assert outputs[0] == outputs[1]
    _, done, failures = fold_checkpoint(str(tmp_path / "ab.jsonl"))
    assert len(done) == len(set(first) | set(second)) and not failures


def test_cli_merge_result_beats_failure_in_both_orders(
    tmp_path, shard_uploads
):
    first, second = overlapping_shards(shard_uploads)
    overlap = sorted(set(first) & set(second))
    victim = overlap[0]
    # Shard A records a quarantine for the overlap key; shard B completed
    # it. Whichever order the shards are merged, the result must win.
    lines = shard_uploads(first).decode().splitlines()
    doctored = []
    for line in lines:
        record = json.loads(line)
        if record.get("key") == victim:
            record = {
                "type": "failure",
                "index": record["index"],
                "key": victim,
                "benchmark": "bitcount",
                "failure": {
                    "kind": "exception",
                    "attempts": 3,
                    "message": "flaky host",
                    "traceback": "",
                },
            }
            line = json.dumps(seal_record(record), sort_keys=True)
        doctored.append(line)
    shard_a = str(tmp_path / "failed.jsonl")
    shard_b = str(tmp_path / "completed.jsonl")
    with open(shard_a, "w") as handle:
        handle.write("\n".join(doctored) + "\n")
    with open(shard_b, "wb") as handle:
        handle.write(shard_uploads(second))
    for name, order in (
        ("rf.jsonl", [shard_a, shard_b]),
        ("fr.jsonl", [shard_b, shard_a]),
    ):
        out = str(tmp_path / name)
        assert checkpoint_main(["merge", "-o", out] + order) == 0
        _, done, failures = fold_checkpoint(out)
        assert victim in done and victim not in failures, (
            f"argument order {order} let a failure shadow a result"
        )


# -- coordinator persistence ---------------------------------------------------


def test_coordinator_restart_resumes_from_merged_artifact(
    tmp_path, shard_uploads
):
    coordinator, clock = make_coordinator(tmp_path)
    lease = coordinator.request("w1")["lease"]
    data = shard_uploads(lease["keys"])
    assert upload(coordinator, "w1", lease, data)["ok"]

    reborn = FabricCoordinator(
        coordinator.state_dir, policy=coordinator.policy,
        clock=FakeClock(),
    )
    assert reborn.spec == SPEC
    assert reborn.shards[lease["shard"]].state == DONE
    # In-flight leases died with the process: every other shard is
    # leasable again immediately.
    assert reborn.request("w2")["lease"] is not None
    status = reborn.status()
    assert status["done_tasks"] == SHARD


def test_submit_is_idempotent_but_refuses_a_different_campaign(tmp_path):
    coordinator, _ = make_coordinator(tmp_path)
    coordinator.submit(SPEC.to_dict())  # same spec: fine
    other = CampaignSpec(
        benchmarks=("bitcount",), runs_per_model=RUNS, seed=SEED + 1,
        scale=SCALE, shard_size=SHARD,
    )
    with pytest.raises(FabricError, match="different campaign"):
        coordinator.submit(other.to_dict())


# -- HTTP transport ------------------------------------------------------------


@pytest.mark.parametrize(
    "secret", [None, b"a-shared-fabric-secret"], ids=["open", "authenticated"]
)
def test_http_transport_round_trip_drives_a_full_campaign(
    tmp_path, serial_checkpoint, secret
):
    from repro.analysis.export import campaign_from_checkpoint, to_csv, to_json

    _, campaign = serial_checkpoint
    coordinator = FabricCoordinator(
        str(tmp_path / "state"),
        policy=FabricPolicy(lease_ttl_s=30.0, poll_s=0.01),
    )
    server = make_http_server(coordinator, secret=secret)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}"
        transport = HttpTransport(url, timeout_s=10.0, secret=secret)
        transport.submit(SPEC.to_dict())
        worker = FabricWorker(
            transport, worker_id="w-http", workdir=str(tmp_path),
            snapshot_interval=50,
        )
        assert worker.run() == 0
        assert worker.shards_completed == 3
        status = transport.status()
        assert status["state"] == "done"
        assert "w-http" in status["workers"]
        fetched = str(tmp_path / "fetched.jsonl")
        with open(fetched, "wb") as handle:
            handle.write(transport.fetch())
        assert checkpoint_main(["verify", fetched]) == 0
        merged = campaign_from_checkpoint(fetched)
        assert to_csv(merged) == to_csv(campaign)
        assert to_json(merged) == to_json(campaign)
    finally:
        server.shutdown()
        thread.join(timeout=5.0)
