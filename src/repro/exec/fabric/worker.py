"""The fabric worker: lease, execute, upload — and survive the network.

Around each shard: a lease-renewal thread (one heartbeat per ``ttl / 3``;
a failed renewal requests a graceful drain of the engine exactly like
SIGTERM would), a fresh per-lease checkpoint file, and a CRC-verified
idempotent upload with capped jittered retry. A global
:class:`~repro.exec.durability.GracefulShutdown` latch (SIGTERM/SIGINT in
the CLI) drains the current shard, uploads the sealed partial and
releases the lease before exiting — the coordinator then hands the
remainder of the shard to someone else via ``skip_keys``.

Partition-proofing is a :class:`~repro.exec.resilience.CircuitBreaker`
over coordinator contact: when every RPC has failed for longer than the
offline budget, the worker stops burning leases it cannot renew, drains
the engine, **seals** the partial shard checkpoint to local disk
(``sealed-shard-*.jsonl`` in the workdir) and exits with
:data:`~repro.exec.durability.SHUTDOWN_EXIT_CODE` — the same contract as
a SIGTERM drain, because an unreachable coordinator and an operator's
shutdown demand the same choreography. On its next start in the same
workdir, the worker uploads any sealed partials before requesting new
work (uploads are valid without a live lease; the merge dedups), so
"restart the worker when the network returns" is a complete recovery
story. Nothing computed is ever lost to a partition.
"""

from __future__ import annotations

import glob
import json
import os
import re
import socket
import sys
import threading
import time
import zlib
from typing import Callable, Dict, List, Optional

from repro.exec.durability import SHUTDOWN_EXIT_CODE, GracefulShutdown
from repro.exec.fabric.spec import CampaignSpec
from repro.exec.fabric.transport import (
    FabricRejected,
    FabricTransport,
    TransportError,
)
from repro.exec.resilience import (
    CircuitBreaker,
    FaultPolicy,
    backoff_with_jitter,
)

#: Sealed-partial filenames: ``sealed-shard-{index}-{token prefix}.jsonl``.
_SEALED_RE = re.compile(r"^sealed-shard-(\d+)-[0-9a-f]+\.jsonl$")


class FabricWorker:
    """Executes leased shards through the ordinary campaign engine.

    Throughput knobs (jobs, snapshot interval, batch size)
    are the worker's own business: any mix across the fleet produces the
    same merged artifact. ``offline_budget_s`` bounds how long the worker
    tolerates total coordinator silence before sealing and exiting
    (None: keep retrying forever). ``clock``/``sleep`` are injectable so
    partition tests run on a fake timeline.
    """

    #: Upload attempts before a shard is abandoned to lease expiry.
    UPLOAD_RETRIES = 5

    def __init__(
        self,
        transport: FabricTransport,
        worker_id: Optional[str] = None,
        workdir: Optional[str] = None,
        jobs: int = 1,
        snapshot_interval: int = 250,
        batch_size: int = 8,
        fault_policy: Optional[FaultPolicy] = None,
        poll_s: Optional[float] = None,
        offline_budget_s: Optional[float] = 300.0,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.transport = transport
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.workdir = workdir or os.getcwd()
        os.makedirs(self.workdir, exist_ok=True)
        self.jobs = jobs
        self.snapshot_interval = snapshot_interval
        self.batch_size = batch_size
        self.fault_policy = (
            fault_policy if fault_policy is not None else FaultPolicy()
        )
        self.poll_s = poll_s
        self.offline_budget_s = offline_budget_s
        self.clock = clock
        self._sleep = sleep
        self.shards_completed = 0
        #: Set when the circuit breaker ended the run: the offline exit.
        self.offline = False
        #: Sealed partial paths left on disk by a breaker-tripped run.
        self.sealed_paths: List[str] = []
        self._breaker: Optional[CircuitBreaker] = None
        self._program_cache: Dict[str, Dict[str, object]] = {}

    # -- campaign material -----------------------------------------------------

    def _programs(self, spec: CampaignSpec) -> Dict[str, object]:
        cache_key = json.dumps(spec.to_dict(), sort_keys=True)
        if cache_key not in self._program_cache:
            self._program_cache.clear()  # one campaign at a time
            self._program_cache[cache_key] = spec.programs()
        return self._program_cache[cache_key]

    # -- breaker bookkeeping ---------------------------------------------------

    def _contact(self) -> None:
        """Record a successful coordinator round-trip."""
        if self._breaker is not None:
            self._breaker.success()

    @property
    def _tripped(self) -> bool:
        return self._breaker is not None and self._breaker.tripped

    # -- sealed partials -------------------------------------------------------

    def _sealed_partials(self) -> List[str]:
        return sorted(
            path
            for path in glob.glob(
                os.path.join(self.workdir, "sealed-shard-*.jsonl")
            )
            if _SEALED_RE.match(os.path.basename(path))
        )

    def _recover_sealed_partials(self) -> None:
        """Upload partials a previous breaker-tripped run sealed to disk.

        An upload is valid without a live lease (the merge dedups by
        content), so the sealed file simply re-enters the normal path;
        success deletes it, failure leaves it for the next start.
        """
        for path in self._sealed_partials():
            match = _SEALED_RE.match(os.path.basename(path))
            shard_index = int(match.group(1))
            with open(path, "rb") as handle:
                data = handle.read()
            crc = zlib.crc32(data) & 0xFFFFFFFF
            try:
                response = self.transport.upload(
                    self.worker_id, shard_index, None, data, crc
                )
            except TransportError:
                return  # still offline; keep the seal, try next start
            except FabricRejected as exc:
                print(
                    f"worker {self.worker_id}: sealed partial {path} "
                    f"rejected ({exc}); leaving it on disk for inspection",
                    file=sys.stderr,
                )
                continue
            self._contact()
            if response.get("ok"):
                print(
                    f"worker {self.worker_id}: recovered sealed partial "
                    f"{os.path.basename(path)} "
                    f"({response.get('new_records', 0)} new record(s))",
                    file=sys.stderr,
                )
                os.unlink(path)

    def _seal_partial(self, shard_path: str, shard_index: int,
                      token: str) -> None:
        """Keep an un-uploadable shard checkpoint on local disk."""
        if not os.path.exists(shard_path):
            return
        sealed = os.path.join(
            self.workdir, f"sealed-shard-{shard_index}-{token[:8]}.jsonl"
        )
        os.replace(shard_path, sealed)
        self.sealed_paths.append(sealed)

    # -- main loop -------------------------------------------------------------

    def run(self, shutdown: Optional[GracefulShutdown] = None) -> int:
        """Lease-execute-upload until the campaign is done.

        Returns 0 on campaign completion, 2 on a definitive coordinator
        rejection (:class:`FabricRejected` — retrying cannot help), and
        :data:`~repro.exec.durability.SHUTDOWN_EXIT_CODE` when the
        offline budget expired (``self.offline`` is set and any partial
        work is sealed in the workdir). The CLI maps the shutdown latch
        to the same exit code — both are "stopped cleanly, restart me".
        """
        shutdown = shutdown if shutdown is not None else GracefulShutdown()
        self._breaker = (
            CircuitBreaker(self.offline_budget_s, clock=self.clock)
            if self.offline_budget_s is not None
            else None
        )
        self._recover_sealed_partials()
        consecutive_errors = 0
        while not shutdown.requested:
            if self._tripped:
                self.offline = True
                return SHUTDOWN_EXIT_CODE
            try:
                response = self.transport.request(self.worker_id)
            except FabricRejected as exc:
                print(
                    f"worker {self.worker_id}: coordinator rejected the "
                    f"work request: {exc}",
                    file=sys.stderr,
                )
                return 2
            except TransportError:
                consecutive_errors += 1
                self._sleep(
                    backoff_with_jitter(consecutive_errors, 0.2, 5.0)
                )
                continue
            consecutive_errors = 0
            self._contact()
            lease = response.get("lease")
            if lease is None:
                if response.get("done"):
                    return 0
                self._sleep(
                    self.poll_s
                    if self.poll_s is not None
                    else float(response.get("retry_after_s", 1.0))
                )
                continue
            self._run_lease(lease, shutdown)
        return 0

    def _run_lease(
        self, lease: Dict[str, object], shutdown: GracefulShutdown
    ) -> None:
        from repro.exec.backends import make_backend
        from repro.exec.engine import run_engine

        spec = CampaignSpec.from_dict(lease["spec"])
        shard_index = lease["shard"]
        token = lease["token"]
        keys = [k for k in lease["keys"] if k not in set(lease["skip_keys"])]
        if not keys:
            self._safe_release(shard_index, token, "complete")
            return

        # The shard-local latch: requested by the global (signal) latch,
        # by lease loss, or by the circuit breaker; either way the engine
        # drains inflight work, flushes the shard checkpoint and returns
        # a sealed partial.
        shard_latch = GracefulShutdown()
        lease_lost = threading.Event()
        stop_beats = threading.Event()

        def renew() -> None:
            interval = max(0.05, float(lease["ttl_s"]) / 3.0)
            while not stop_beats.wait(interval):
                if shutdown.requested and not shard_latch.requested:
                    shard_latch.request()
                    continue
                if self._tripped and not shard_latch.requested:
                    # Offline past budget: stop computing against a lease
                    # nobody is renewing; drain and let run() seal.
                    shard_latch.request()
                    continue
                try:
                    alive = self.transport.heartbeat(
                        self.worker_id, shard_index, token
                    )
                except TransportError:
                    continue  # transient; the lease has ttl_s of slack
                except FabricRejected:
                    continue  # the drain path below handles lease loss
                self._contact()
                if not alive and not lease_lost.is_set():
                    lease_lost.set()
                    if not shard_latch.requested:
                        shard_latch.request()

        beater = threading.Thread(target=renew, daemon=True)
        beater.start()
        shard_path = os.path.join(
            self.workdir, f"shard-{shard_index}-{token[:8]}.jsonl"
        )
        keep_shard_file = False
        try:
            run_engine(
                self._programs(spec),
                spec.runs_per_model,
                models=spec.model_enums,
                seed=spec.seed,
                config=spec.core_config(),
                max_attempts=spec.max_attempts,
                backend=make_backend(self.jobs, self.fault_policy),
                checkpoint_path=shard_path,
                snapshot_interval=self.snapshot_interval,
                batch_size=self.batch_size,
                shutdown=shard_latch,
                shard_keys=keys,
            )
            uploaded = self._upload_shard(shard_path, shard_index, token)
            if not uploaded and self._tripped:
                # The coordinator is gone past budget: seal locally so
                # the computed records survive the exit, skip the release
                # (it cannot be delivered; the lease TTL reclaims the
                # shard), and let run() exit 75.
                self._seal_partial(shard_path, shard_index, token)
                keep_shard_file = True
                return
            if shutdown.requested or shard_latch.requested:
                self._safe_release(
                    shard_index, token, "drain",
                    reason="lease lost" if lease_lost.is_set() else "shutdown",
                )
            elif uploaded:
                self._safe_release(shard_index, token, "complete")
                self.shards_completed += 1
            else:
                self._safe_release(
                    shard_index, token, "failed", reason="upload failed"
                )
        except Exception as exc:
            # A worker-side hard failure (bad env, disk full, ...): hand
            # the shard back charged; repeated offenders quarantine it.
            print(
                f"worker {self.worker_id}: shard {shard_index} failed: "
                f"{type(exc).__name__}: {exc}",
                file=sys.stderr,
            )
            self._safe_release(
                shard_index, token, "failed",
                reason=f"{type(exc).__name__}: {exc}",
            )
        finally:
            stop_beats.set()
            beater.join(timeout=5.0)
            if not keep_shard_file:
                try:
                    os.unlink(shard_path)
                except OSError:
                    pass

    def _upload_shard(
        self, shard_path: str, shard_index: int, token: str
    ) -> bool:
        if not os.path.exists(shard_path):
            return False
        with open(shard_path, "rb") as handle:
            data = handle.read()
        crc = zlib.crc32(data) & 0xFFFFFFFF
        for attempt in range(1, self.UPLOAD_RETRIES + 1):
            try:
                response = self.transport.upload(
                    self.worker_id, shard_index, token, data, crc
                )
            except TransportError:
                response = None
            except FabricRejected as exc:
                print(
                    f"worker {self.worker_id}: upload of shard "
                    f"{shard_index} rejected: {exc}",
                    file=sys.stderr,
                )
                return False  # definitive; retrying cannot help
            if response is not None:
                self._contact()
                if response.get("ok"):
                    return True
            if self._tripped:
                return False  # stop burning retries against a dead link
            if attempt < self.UPLOAD_RETRIES:
                self._sleep(backoff_with_jitter(attempt, 0.2, 5.0))
        return False

    def _safe_release(
        self, shard_index: int, token: str, outcome: str, reason: str = ""
    ) -> None:
        try:
            self.transport.release(
                self.worker_id, shard_index, token, outcome, reason
            )
            self._contact()
        except TransportError:
            pass  # the lease TTL reclaims the shard either way
        except FabricRejected:
            pass  # e.g. unknown shard after a coordinator reset
