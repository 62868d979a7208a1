"""CLI entry points for the fabric: serve / submit / status / fetch / work.

All five speak the authenticated protocol the same way: ``--secret-file``
(or the ``REPRO_FABRIC_SECRET`` environment variable) supplies the shared
HMAC secret; neither path ever puts the secret itself in ``argv``, and
nothing here prints, logs or serializes it.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from typing import List, Optional

from repro.exec.durability import (
    CheckpointError,
    GracefulShutdown,
    SHUTDOWN_EXIT_CODE,
    atomic_write_text,
)
from repro.exec.fabric.auth import ENV_SECRET, load_secret
from repro.exec.fabric.coordinator import (
    DONE,
    FabricCoordinator,
    FabricPolicy,
)
from repro.exec.fabric.spec import CampaignSpec
from repro.exec.fabric.transport import (
    FabricCallError,
    HttpTransport,
    RetryPolicy,
    RetryingTransport,
    make_http_server,
)
from repro.exec.fabric.worker import FabricWorker


def _add_coordinator_arg(parser) -> None:
    parser.add_argument(
        "--coordinator",
        required=True,
        metavar="URL",
        help="coordinator base URL, e.g. http://127.0.0.1:8757",
    )


def _add_secret_arg(parser) -> None:
    parser.add_argument(
        "--secret-file",
        default=None,
        metavar="PATH",
        help="file holding the shared HMAC secret for authenticated RPC "
        f"[${ENV_SECRET} if set, else unauthenticated]",
    )


def _resolve_secret(args) -> Optional[bytes]:
    """Load the secret or exit-2 via SystemExit on a bad secret file."""
    try:
        return load_secret(args.secret_file)
    except (OSError, ValueError) as exc:
        print(f"cannot load secret: {exc}", file=sys.stderr)
        raise SystemExit(2)


def serve_main(argv: Optional[List[str]] = None) -> int:
    """``repro serve`` — run the campaign coordinator."""
    import argparse

    from repro.cli import add_progress_arg, progress_observers

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve the distributed campaign coordinator.",
    )
    parser.add_argument(
        "--state-dir",
        required=True,
        metavar="DIR",
        help="where the spec and the continuously-merged artifact live; "
        "restart on the same directory to resume a killed coordinator",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0,
        help="0 picks a free port (written to DIR/coordinator.json) [0]",
    )
    parser.add_argument(
        "--lease-ttl", type=float, default=60.0, metavar="S",
        help="seconds a shard lease survives without a heartbeat [60]",
    )
    parser.add_argument(
        "--quarantine-after", type=int, default=3, metavar="N",
        help="distinct failing workers before a shard is poison [3]",
    )
    _add_secret_arg(parser)
    add_progress_arg(parser)
    args = parser.parse_args(argv)
    secret = _resolve_secret(args)
    try:
        coordinator = FabricCoordinator(
            args.state_dir,
            policy=FabricPolicy(
                lease_ttl_s=args.lease_ttl,
                quarantine_after=args.quarantine_after,
            ),
            observers=progress_observers(args),
        )
    except (CheckpointError, ValueError) as exc:
        print(f"cannot start coordinator: {exc}", file=sys.stderr)
        return 2
    server = make_http_server(
        coordinator, args.host, args.port, secret=secret
    )
    host, port = server.server_address[:2]
    url = f"http://{host}:{port}"
    atomic_write_text(
        os.path.join(args.state_dir, "coordinator.json"),
        json.dumps({"url": url}, sort_keys=True) + "\n",
    )
    resumed = ""
    if coordinator.spec is not None:
        done = sum(1 for s in coordinator.shards if s.state == DONE)
        resumed = (
            f" (resumed campaign: {done}/{len(coordinator.shards)} "
            "shards already merged)"
        )
    guard = " [authenticated]" if secret is not None else ""
    print(f"fabric coordinator serving on {url}{guard}{resumed}", flush=True)
    with GracefulShutdown() as shutdown:
        # serve_forever polls, so a latched signal is noticed promptly.
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            while thread.is_alive() and not shutdown.requested:
                time.sleep(0.2)
        finally:
            server.shutdown()
            thread.join(timeout=5.0)
    print("coordinator stopped; state preserved in "
          f"{args.state_dir} (restart to resume)", file=sys.stderr)
    return 0


def submit_main(argv: Optional[List[str]] = None) -> int:
    """``repro submit`` — post a campaign spec to a coordinator."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro submit",
        description="Submit a campaign to a fabric coordinator.",
    )
    _add_coordinator_arg(parser)
    parser.add_argument("--runs", type=int, required=True, metavar="N",
                        help="injections per (benchmark, bug model) pair")
    parser.add_argument("--benchmarks", default="all",
                        help="comma-separated benchmark names, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--max-attempts", type=int, default=6)
    parser.add_argument(
        "--shard-size", type=int, default=25, metavar="N",
        help="tasks per leased shard [25]",
    )
    _add_secret_arg(parser)
    args = parser.parse_args(argv)
    from repro.workloads import parse_benchmarks

    secret = _resolve_secret(args)
    try:
        names = parse_benchmarks(args.benchmarks)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        spec = CampaignSpec(
            benchmarks=tuple(names),
            runs_per_model=args.runs,
            seed=args.seed,
            scale=args.scale,
            max_attempts=args.max_attempts,
            shard_size=args.shard_size,
        )
        status = HttpTransport(
            args.coordinator, secret=secret
        ).submit(spec.to_dict())
    except (FabricCallError, ValueError) as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(status, indent=2, sort_keys=True))
    return 0


def status_main(argv: Optional[List[str]] = None) -> int:
    """``repro status`` — print a coordinator's aggregate state."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro status",
        description="Query a fabric coordinator's campaign status.",
    )
    _add_coordinator_arg(parser)
    _add_secret_arg(parser)
    args = parser.parse_args(argv)
    secret = _resolve_secret(args)
    try:
        status = HttpTransport(args.coordinator, secret=secret).status()
    except FabricCallError as exc:
        print(f"status failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(status, indent=2, sort_keys=True))
    return 0


def fetch_main(argv: Optional[List[str]] = None) -> int:
    """``repro fetch`` — download the merged artifact."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro fetch",
        description="Fetch the coordinator's merged campaign artifact.",
    )
    _add_coordinator_arg(parser)
    parser.add_argument(
        "-o", "--output", required=True, metavar="PATH",
        help="where to write the merged JSONL checkpoint",
    )
    _add_secret_arg(parser)
    args = parser.parse_args(argv)
    secret = _resolve_secret(args)
    try:
        data = HttpTransport(args.coordinator, secret=secret).fetch()
    except FabricCallError as exc:
        print(f"fetch failed: {exc}", file=sys.stderr)
        return 2
    atomic_write_text(
        args.output, data.decode("utf-8", errors="surrogateescape")
    )
    print(f"wrote {args.output} ({len(data)} bytes)")
    return 0


def _parse_work_args(argv: Optional[List[str]]):
    import argparse

    from repro.cli import (
        add_batch_size_arg,
        add_jobs_arg,
        add_snapshot_interval_arg,
    )

    parser = argparse.ArgumentParser(
        prog="repro work",
        description="Execute leased campaign shards from a coordinator.",
    )
    _add_coordinator_arg(parser)
    parser.add_argument(
        "--workdir", default=None, metavar="DIR",
        help="where per-lease shard checkpoints (and sealed partials "
        "from offline exits) are staged [cwd]",
    )
    add_jobs_arg(parser)
    add_snapshot_interval_arg(parser)
    add_batch_size_arg(parser)
    parser.add_argument(
        "--poll", type=float, default=None, metavar="S",
        help="idle retry period [coordinator's hint]",
    )
    parser.add_argument(
        "--worker-id", default=None,
        help="stable worker identity [hostname-pid]",
    )
    _add_secret_arg(parser)
    parser.add_argument(
        "--call-deadline", type=float, default=60.0, metavar="S",
        help="wall-clock budget per RPC including transient-failure "
        "retries [60]",
    )
    parser.add_argument(
        "--offline-budget", type=float, default=300.0, metavar="S",
        help="total coordinator silence tolerated before the worker "
        "seals partial work to the workdir and exits 75; 0 retries "
        "forever [300]",
    )
    return parser.parse_args(argv)


def work_main(argv: Optional[List[str]] = None) -> int:
    """``repro work`` — run a fabric worker against a coordinator."""
    from repro.cli import run_args_error

    args = _parse_work_args(argv)
    error = run_args_error(args)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    if args.call_deadline <= 0:
        print(
            f"--call-deadline must be > 0, got {args.call_deadline}",
            file=sys.stderr,
        )
        return 2
    secret = _resolve_secret(args)
    transport = RetryingTransport(
        HttpTransport(args.coordinator, secret=secret),
        RetryPolicy(deadline_s=args.call_deadline),
    )
    worker = FabricWorker(
        transport,
        worker_id=args.worker_id,
        workdir=args.workdir,
        jobs=args.jobs,
        snapshot_interval=args.snapshot_interval,
        batch_size=args.batch_size,
        poll_s=args.poll,
        offline_budget_s=args.offline_budget if args.offline_budget > 0
        else None,
    )
    with GracefulShutdown() as shutdown:
        code = worker.run(shutdown)
    if worker.offline:
        sealed = ", ".join(
            os.path.basename(p) for p in worker.sealed_paths
        ) or "none (no partial work was in flight)"
        print(
            f"worker {worker.worker_id}: coordinator unreachable for "
            f"{args.offline_budget:.0f}s; circuit breaker tripped. "
            f"Sealed partial(s): {sealed}. Resume when connectivity "
            "returns with: repro work --coordinator "
            f"{args.coordinator} --workdir {worker.workdir}",
            file=sys.stderr,
        )
        return SHUTDOWN_EXIT_CODE
    if shutdown.requested:
        print(
            f"worker {worker.worker_id}: interrupted by "
            f"{shutdown.signal_name}; drained the current shard, uploaded "
            "the sealed partial and released the lease",
            file=sys.stderr,
        )
        return SHUTDOWN_EXIT_CODE
    if code == 0:
        print(
            f"worker {worker.worker_id}: campaign complete "
            f"({worker.shards_completed} shard(s) finished here)"
        )
    return code
