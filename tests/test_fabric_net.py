"""Network robustness of the fabric: fault injection, taxonomy, retries.

Covers the seeded :class:`~repro.exec.fabric.FaultyTransport` schedule
machinery, the transport error taxonomy (transient :class:`TransportError`
vs definitive :class:`FabricRejected`), :class:`RetryingTransport`
deadlines, the hardened HTTP server (bounded bodies, malformed input → 4xx
one-liners, never a traceback), idempotent lease re-requests, autoscaling
hints, and the worker's offline circuit breaker with sealed-partial
recovery. Whole campaigns under the four network fault mixes run in
``tests/test_chaos.py``.
"""

from __future__ import annotations

import json
import os
import threading
import urllib.error
import urllib.request
import zlib

import pytest

from repro.exec.durability import SHUTDOWN_EXIT_CODE
from repro.exec.fabric import (
    CampaignSpec,
    FabricCallError,
    FabricCoordinator,
    FabricPolicy,
    FabricRejected,
    FabricWorker,
    FaultRule,
    FaultSchedule,
    FaultyTransport,
    HttpTransport,
    LocalTransport,
    RetryPolicy,
    RetryingTransport,
    TransportError,
    make_http_server,
)

from tests.test_fabric import (  # noqa: F401  (fixtures)
    RUNS,
    SEED,
    SPEC,
    FakeClock,
    make_coordinator,
    programs,
    serial_checkpoint,
    shard_uploads,
)


# -- error taxonomy ------------------------------------------------------------


def test_taxonomy_rejected_is_not_retryable():
    """The load-bearing shape: both errors share a base, but neither is a
    subclass of the other — a retry loop catching TransportError can never
    swallow a definitive rejection."""
    assert issubclass(TransportError, FabricCallError)
    assert issubclass(FabricRejected, FabricCallError)
    assert not issubclass(FabricRejected, TransportError)
    assert not issubclass(TransportError, FabricRejected)
    exc = FabricRejected("no", code=401)
    assert exc.code == 401


# -- fault rules and schedules -------------------------------------------------


def test_fault_rule_validation():
    with pytest.raises(ValueError):
        FaultRule(kind="gremlins")
    with pytest.raises(ValueError):
        FaultRule(kind="drop", endpoint="teleport")
    with pytest.raises(ValueError):
        FaultRule(kind="drop", p=1.5)
    with pytest.raises(ValueError):
        FaultRule(kind="drop", first_call=0)
    with pytest.raises(ValueError):
        FaultRule(kind="drop", first_call=5, last_call=4)
    with pytest.raises(ValueError):
        FaultRule(kind="latency", latency_s=-1.0)


def test_fault_rule_window_matching():
    rule = FaultRule(kind="partition", endpoint="upload",
                     first_call=2, last_call=4)
    assert not rule.matches("upload", 1)
    assert rule.matches("upload", 2)
    assert rule.matches("upload", 4)
    assert not rule.matches("upload", 5)
    assert not rule.matches("request", 3)
    wildcard = FaultRule(kind="drop")
    assert wildcard.matches("request", 1) and wildcard.matches("fetch", 99)


def test_fault_schedule_roundtrip():
    schedule = FaultSchedule(seed=42, rules=(
        FaultRule(kind="drop", p=0.5),
        FaultRule(kind="latency", endpoint="status", latency_s=0.25,
                  first_call=3, last_call=9),
    ))
    assert FaultSchedule.from_dict(schedule.to_dict()) == schedule


class Recorder:
    """A FabricTransport stub that records calls and returns canned data."""

    def __init__(self):
        self.calls = []

    def request(self, worker):
        self.calls.append(("request", worker))
        return {"lease": None, "done": False, "retry_after_s": 0.0}

    def status(self):
        self.calls.append(("status", None))
        return {"state": "idle"}


def test_faulty_transport_drop_never_reaches_inner():
    inner = Recorder()
    faulty = FaultyTransport(
        inner, FaultSchedule(seed=1, rules=(FaultRule(kind="drop"),))
    )
    with pytest.raises(TransportError):
        faulty.request("w")
    assert inner.calls == []  # the request truly never arrived
    assert faulty.injected_by_kind() == {"drop": 1}


def test_faulty_transport_blackhole_applies_then_fails():
    inner = Recorder()
    faulty = FaultyTransport(
        inner,
        FaultSchedule(
            seed=1, rules=(FaultRule(kind="blackhole-response"),)
        ),
    )
    with pytest.raises(TransportError):
        faulty.request("w")
    assert inner.calls == [("request", "w")]  # applied, response lost


def test_faulty_transport_duplicate_returns_first():
    inner = Recorder()
    faulty = FaultyTransport(
        inner, FaultSchedule(seed=1, rules=(FaultRule(kind="duplicate"),))
    )
    assert faulty.request("w")["lease"] is None
    assert inner.calls == [("request", "w"), ("request", "w")]


def test_faulty_transport_latency_uses_injected_sleep():
    inner = Recorder()
    slept = []
    faulty = FaultyTransport(
        inner,
        FaultSchedule(
            seed=1, rules=(FaultRule(kind="latency", latency_s=2.5),)
        ),
        sleep=slept.append,
    )
    faulty.status()
    assert slept == [2.5]
    assert inner.calls == [("status", None)]  # latency alone is harmless


def test_faulty_transport_partition_window_heals():
    inner = Recorder()
    faulty = FaultyTransport(
        inner,
        FaultSchedule(seed=1, rules=(
            FaultRule(kind="partition", endpoint="request",
                      first_call=1, last_call=2),
        )),
    )
    for _ in range(2):
        with pytest.raises(TransportError):
            faulty.request("w")
    assert faulty.request("w")["done"] is False  # healed on call 3
    assert inner.calls == [("request", "w")]


def test_faulty_transport_probabilistic_draws_are_seeded():
    """Same seed → identical injections; the whole replay contract."""
    def run(seed):
        inner = Recorder()
        faulty = FaultyTransport(
            inner,
            FaultSchedule(seed=seed, rules=(FaultRule(kind="drop", p=0.5),)),
        )
        outcomes = []
        for _ in range(40):
            try:
                faulty.status()
                outcomes.append("ok")
            except TransportError:
                outcomes.append("drop")
        return outcomes

    assert run(7) == run(7)
    assert run(7) != run(8)  # virtually impossible to collide over 40 draws
    drops = run(7).count("drop")
    assert 5 < drops < 35  # p=0.5 actually draws, not all-or-nothing


# -- retrying transport --------------------------------------------------------


class Flaky:
    """Fails with TransportError ``failures`` times, then succeeds."""

    def __init__(self, failures, exc=TransportError("flaky")):
        self.failures = failures
        self.exc = exc
        self.calls = 0

    def status(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc
        return {"state": "idle"}


def test_retrying_transport_retries_transient_to_success():
    clock = FakeClock()
    slept = []

    def sleep(seconds):
        slept.append(seconds)
        clock.advance(seconds)

    transport = RetryingTransport(
        Flaky(3),
        RetryPolicy(deadline_s=60.0, clock=clock, sleep=sleep),
    )
    assert transport.status() == {"state": "idle"}
    assert len(slept) == 3 and all(s >= 0.0 for s in slept)


def test_retrying_transport_gives_up_at_deadline():
    clock = FakeClock()
    transport = RetryingTransport(
        Flaky(10**9),
        RetryPolicy(
            deadline_s=10.0, clock=clock,
            sleep=lambda s: clock.advance(max(s, 1.0)),
        ),
    )
    with pytest.raises(TransportError):
        transport.status()
    assert clock.now <= 11.0  # gave up at the deadline, not long after


def test_retrying_transport_never_retries_rejections():
    flaky = Flaky(5, exc=FabricRejected("definitively no", code=400))
    transport = RetryingTransport(
        flaky,
        RetryPolicy(
            deadline_s=60.0,
            sleep=lambda s: pytest.fail("slept on a rejection"),
        ),
    )
    with pytest.raises(FabricRejected):
        transport.status()
    assert flaky.calls == 1


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(deadline_s=0.0)


# -- idempotent lease requests -------------------------------------------------


def test_request_is_idempotent_per_worker(tmp_path):
    """A worker whose lease-response was lost re-requests and gets the
    SAME lease back — same shard, same token, no second grant."""
    coordinator, clock = make_coordinator(tmp_path)
    first = coordinator.request("w1")["lease"]
    assert first is not None
    grants = coordinator.shards[first["shard"]].grants
    again = coordinator.request("w1")["lease"]
    assert again["shard"] == first["shard"]
    assert again["token"] == first["token"]
    assert coordinator.shards[first["shard"]].grants == grants
    # The re-request also renewed the lease: a full TTL from *now*.
    clock.advance(59.0)
    other = coordinator.request("w2")["lease"]
    assert other is not None and other["shard"] != first["shard"]


def test_request_after_expiry_is_a_fresh_grant(tmp_path):
    coordinator, clock = make_coordinator(tmp_path)
    first = coordinator.request("w1")["lease"]
    clock.advance(61.0)  # lease dead; the worker was charged
    again = coordinator.request("w1")["lease"]
    assert again is not None
    assert again["token"] != first["token"]


# -- autoscaling hints ---------------------------------------------------------


def test_status_hints_track_shards_and_workers(tmp_path):
    coordinator, clock = make_coordinator(tmp_path)
    hints = coordinator.status()["hints"]
    assert hints == {
        "pending_shards": 3,
        "leased_shards": 0,
        "quarantined_shards": 0,
        "done_shards": 0,
        "active_workers": 0,
        "suggested_worker_delta": 3,
    }
    coordinator.request("w1")
    hints = coordinator.status()["hints"]
    assert hints["leased_shards"] == 1 and hints["pending_shards"] == 2
    assert hints["active_workers"] == 1
    assert hints["suggested_worker_delta"] == 2  # 3 runnable - 1 active
    # A worker silent for two lease TTLs no longer counts as active.
    clock.advance(121.0)
    hints = coordinator.status()["hints"]
    assert hints["active_workers"] == 0
    assert hints["suggested_worker_delta"] == 3


def test_status_hints_negative_delta_when_done(
    tmp_path, programs, shard_uploads
):
    coordinator, clock = make_coordinator(tmp_path)
    while True:
        response = coordinator.request("w1")
        lease = response["lease"]
        if lease is None:
            assert response["done"]
            break
        data = shard_uploads(lease["keys"])
        coordinator.upload(
            "w1", lease["shard"], lease["token"], data,
            zlib.crc32(data) & 0xFFFFFFFF,
        )
        coordinator.release(
            "w1", lease["shard"], lease["token"], "complete"
        )
    hints = coordinator.status()["hints"]
    assert hints["done_shards"] == 3 and hints["pending_shards"] == 0
    assert hints["suggested_worker_delta"] == -1  # w1 can go home


# -- hardened HTTP server ------------------------------------------------------


@pytest.fixture()
def http_server(tmp_path):
    coordinator = FabricCoordinator(str(tmp_path / "state"))
    coordinator.submit(SPEC.to_dict())
    server = make_http_server(coordinator, port=0, max_body_bytes=4096)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield coordinator, f"http://{host}:{port}"
    server.shutdown()
    thread.join(timeout=5.0)


def _post(url, path, data):
    request = urllib.request.Request(
        url + path, data=data,
        headers={"Content-Type": "application/json"},
    )
    return urllib.request.urlopen(request, timeout=10.0)


def test_server_rejects_oversized_body(http_server):
    _, url = http_server
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(url, "/api/request", b"x" * 8192)
    assert excinfo.value.code == 413


def test_server_rejects_malformed_json_with_400(http_server):
    _, url = http_server
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(url, "/api/request", b"{definitely not json")
    assert excinfo.value.code == 400
    detail = json.loads(excinfo.value.read())["error"]
    assert "\n" not in detail  # one line, no traceback


def test_server_rejects_non_object_json_with_400(http_server):
    _, url = http_server
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(url, "/api/request", b"[1, 2, 3]")
    assert excinfo.value.code == 400


def test_server_rejects_missing_fields_with_400(http_server):
    _, url = http_server
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(url, "/api/heartbeat", b"{}")
    assert excinfo.value.code == 400
    detail = json.loads(excinfo.value.read())["error"]
    assert "KeyError" in detail and "\n" not in detail


def test_server_rejects_malformed_base64_with_400(http_server):
    _, url = http_server
    body = json.dumps({
        "worker": "w", "shard": 0, "token": None,
        "crc": 0, "data": "!!!not base64!!!",
    }).encode("utf-8")
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(url, "/api/upload", body)
    assert excinfo.value.code == 400


def test_server_survives_garbage_and_keeps_serving(http_server):
    """After every kind of malformed input, the server still answers a
    well-formed request: no wedged handler thread, no dead server."""
    _, url = http_server
    for payload in (b"", b"\x00\xff\xfe", b"{", b'{"worker": }'):
        try:
            _post(url, "/api/request", payload)
        except urllib.error.HTTPError as exc:
            assert exc.code in (400, 404)
    transport = HttpTransport(url, timeout_s=10.0)
    assert transport.status()["state"] == "running"


def test_client_maps_4xx_to_rejected(http_server):
    _, url = http_server
    transport = HttpTransport(url, timeout_s=10.0)
    with pytest.raises(FabricRejected) as excinfo:
        transport._json("/api/nowhere", {"x": 1})
    assert excinfo.value.code == 404
    # Conflicting campaign: a definitive 409 → FabricRejected, not retry.
    different = CampaignSpec(
        benchmarks=("bitcount",), runs_per_model=RUNS + 1, seed=SEED,
        scale=0.25, shard_size=2,
    )
    with pytest.raises(FabricRejected):
        transport.submit(different.to_dict())


def test_client_maps_unparseable_response_to_transport_error():
    """A non-fabric endpoint answering 200 with garbage must read as a
    transient transport failure, not crash the caller."""

    class GarbageHandler(__import__("http.server").server.BaseHTTPRequestHandler):
        def do_POST(self):
            self.rfile.read(int(self.headers.get("Content-Length") or 0))
            body = b"<html>totally a coordinator</html>"
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, fmt, *args):
            pass

    from http.server import ThreadingHTTPServer

    server = ThreadingHTTPServer(("127.0.0.1", 0), GarbageHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        transport = HttpTransport(f"http://{host}:{port}", timeout_s=10.0)
        with pytest.raises(TransportError):
            transport.request("w")
    finally:
        server.shutdown()
        thread.join(timeout=5.0)


# -- worker circuit breaker ----------------------------------------------------


def _partition_after_first_request():
    return FaultSchedule(seed=9, rules=(
        FaultRule(kind="partition", endpoint="request", first_call=2),
        FaultRule(kind="partition", endpoint="heartbeat"),
        FaultRule(kind="partition", endpoint="upload"),
        FaultRule(kind="partition", endpoint="release"),
    ))


def test_worker_breaker_seals_partial_and_resumes(
    tmp_path, programs, serial_checkpoint
):
    """The acceptance scenario at unit scale: a permanent partition trips
    the breaker (exit 75, work sealed to the workdir, nothing charged to
    the coordinator it couldn't reach), and a restarted worker on the
    same workdir recovers the seal, deletes it and finishes the campaign
    with exports identical to the serial run."""
    from repro.analysis.export import campaign_from_checkpoint, to_csv, to_json

    coordinator = FabricCoordinator(str(tmp_path / "state"))
    coordinator.submit(SPEC.to_dict())
    clock = FakeClock()
    workdir = str(tmp_path / "work")
    worker = FabricWorker(
        FaultyTransport(
            LocalTransport(coordinator), _partition_after_first_request()
        ),
        worker_id="w-offline",
        workdir=workdir,
        snapshot_interval=0,
        poll_s=0.01,
        offline_budget_s=1.0,
        clock=clock,
        sleep=clock.advance,
    )
    assert worker.run() == SHUTDOWN_EXIT_CODE
    assert worker.offline
    assert len(worker.sealed_paths) == 1
    assert coordinator.status()["done_tasks"] == 0

    resumed = FabricWorker(
        LocalTransport(coordinator),
        worker_id="w-offline",
        workdir=workdir,
        snapshot_interval=0,
        poll_s=0.01,
    )
    assert resumed.run() == 0
    status = coordinator.status()
    assert status["state"] == "done"
    assert status["done_tasks"] == status["total_tasks"]
    assert not any(os.path.exists(path) for path in worker.sealed_paths)
    merged = campaign_from_checkpoint(coordinator.artifact_path)
    _, serial = serial_checkpoint
    assert to_csv(merged) == to_csv(serial)
    assert to_json(merged) == to_json(serial)


def test_worker_without_budget_keeps_retrying(tmp_path):
    """offline_budget_s=None never trips: the worker outlives any outage
    (here: a partition that heals after 40 failed requests)."""
    coordinator, _ = make_coordinator(tmp_path)
    # Partition request calls 1..40, heal afterwards; drain leases fast so
    # the run finishes promptly once healed.
    schedule = FaultSchedule(seed=9, rules=(
        FaultRule(kind="partition", endpoint="request",
                  first_call=1, last_call=40),
    ))
    clock = FakeClock()
    worker = FabricWorker(
        FaultyTransport(LocalTransport(coordinator), schedule),
        worker_id="w-patient",
        workdir=str(tmp_path / "work"),
        snapshot_interval=0,
        poll_s=0.01,
        offline_budget_s=None,
        clock=clock,
        sleep=clock.advance,
    )
    done = threading.Event()
    shutdown_codes = []

    def run():
        shutdown_codes.append(worker.run())
        done.set()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert done.wait(timeout=120.0), "worker wedged instead of outliving"
    assert shutdown_codes == [0]
    assert coordinator.status()["state"] == "done"
