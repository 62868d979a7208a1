"""Artifact integrity and interruption primitives for durable campaigns.

The paper's thesis is that silent corruption must be caught *instantly*;
this module applies the same checker mindset to our own persistence layer.
Everything host-level that threatens a multi-hour JSONL checkpoint lives
here, dependency-free so every layer can use it without cycles:

* **Record sealing** — every checkpoint record carries a ``crc`` (CRC32 of
  its canonical JSON payload) and the manifest an ``identity`` content
  hash, so bit rot and hand edits are detected at read time, with line
  numbers, instead of silently skewing figure statistics.
* **One sealed log** — :class:`SealedLog` writes campaign and fuzz
  checkpoints alike (manifest first, sealed lines, lock, flush/fsync);
  the engines keep only their record codecs.
* **Streaming scan** — :func:`scan_checkpoint` classifies every line of a
  checkpoint (intact / torn tail / interior corruption) in O(1) memory;
  :func:`fold_checkpoint` also deduplicates, and :func:`load_sealed_log`
  is the strict loader built on it (tolerates exactly a torn final line,
  raises on anything else). :func:`manifest_mismatch` decides whether a
  file belongs to a run (resume, merge); :func:`merge_shard` is the
  cross-file merge rule.
* **Torn-tail truncation** — :func:`truncate_torn_tail` drops a partial
  final line without reading the whole file into memory.
* **Atomic writes** — :func:`atomic_write_text` writes via a temp file in
  the destination directory plus ``os.replace``, so a killed export never
  leaves a half-written figure input.
* **Single-writer locking** — :class:`CheckpointLock`, a sidecar lockfile
  (PID + heartbeat mtime) that makes a second concurrent run refuse to
  append to the same checkpoint, with stale-lock takeover once the
  heartbeat ages out (or the owning local process is provably dead).
* **Graceful shutdown** — :class:`GracefulShutdown`, a SIGINT/SIGTERM
  latch: the first signal requests an orderly drain under a deadline, the
  second hard-exits (the torn-tail path covers that).
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import signal
import socket
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from typing import IO, Callable, Dict, Iterator, List, Optional, Tuple

#: Exit code of a CLI run stopped by a graceful SIGINT/SIGTERM drain —
#: EX_TEMPFAIL: the run is incomplete but resumable, not failed.
SHUTDOWN_EXIT_CODE = 75

#: Chaos hook (see :mod:`repro.exec.chaos`): when this variable names a
#: task key, the checkpoint writer emits half of that record's line and
#: hard-exits — a deterministic SIGKILL-mid-append.
ENV_TORN_APPEND = "REPRO_CHAOS_TORN_APPEND"

#: Exit status of a deliberate torn-append kill (matches chaos.EXIT_STATUS).
TORN_APPEND_EXIT_STATUS = 17


class CheckpointError(RuntimeError):
    """Raised on corrupt or mismatched checkpoint files."""


class CheckpointLockedError(CheckpointError):
    """Another live run holds the checkpoint's writer lock."""


# -- record sealing -----------------------------------------------------------


def canonical_payload(record: Dict[str, object]) -> bytes:
    """The canonical bytes a record's CRC covers: compact, sorted JSON of
    everything except the ``crc`` field itself."""
    payload = {k: v for k, v in record.items() if k != "crc"}
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def crc_of(record: Dict[str, object]) -> int:
    return zlib.crc32(canonical_payload(record)) & 0xFFFFFFFF


def seal_record(record: Dict[str, object]) -> Dict[str, object]:
    """Return ``record`` with its ``crc`` field (re)computed."""
    sealed = dict(record)
    sealed["crc"] = crc_of(record)
    return sealed


# -- streaming scan / strict iteration ----------------------------------------


@dataclass(frozen=True)
class LineIssue:
    """One damaged checkpoint line."""

    lineno: int  # 1-based
    reason: str  # human-readable, e.g. "unparsable JSON", "CRC missing"
    torn_tail: bool  # damage confined to a partial final line


@dataclass
class ScanReport:
    """What a full integrity scan of one checkpoint found."""

    path: str
    manifest: Optional[Dict[str, object]] = None
    records: int = 0  # intact data records (manifest excluded)
    by_type: Dict[str, int] = field(default_factory=dict)
    sealed: int = 0  # intact records, manifest included: each is CRC-sealed
    issues: List[LineIssue] = field(default_factory=list)

    @property
    def torn_tail(self) -> bool:
        return any(issue.torn_tail for issue in self.issues)

    @property
    def interior_issues(self) -> List[LineIssue]:
        return [issue for issue in self.issues if not issue.torn_tail]

    @property
    def clean(self) -> bool:
        return self.manifest is not None and not self.issues


def _walk_lines(path: str) -> Iterator[Tuple[int, bool, str]]:
    """Yield ``(lineno, is_last, line)`` streaming, without reading the
    whole file; blank lines are skipped (they carry no record)."""
    with open(path, "r") as handle:
        pending: Optional[Tuple[int, str]] = None
        for lineno, line in enumerate(handle, 1):
            if pending is not None:
                yield pending[0], False, pending[1]
            stripped = line.strip()
            pending = (lineno, stripped) if stripped else None
        if pending is not None:
            yield pending[0], True, pending[1]


def _check_line(
    line: str,
    manifest_seen: bool,
    decode: Optional[Callable[[Dict[str, object]], None]],
) -> Tuple[Optional[Dict[str, object]], Optional[str]]:
    """Parse + verify one checkpoint line: ``(record, None)`` when intact,
    ``(None, reason)`` when damaged."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return None, "unparsable JSON"
    if not isinstance(record, dict):
        return None, "record is not a JSON object"
    if "crc" not in record:
        return None, "CRC missing"
    if record["crc"] != crc_of(record):
        return None, "CRC mismatch"
    kind = record.get("type")
    if not manifest_seen:
        if not isinstance(kind, str) or not kind.endswith("manifest"):
            return None, f"expected a manifest record, got type {kind!r}"
        if "identity" not in record:
            return None, "manifest identity missing"
        if record["identity"] != manifest_identity(record):
            return None, "manifest identity hash mismatch"
        return record, None
    if not isinstance(kind, str):
        return None, f"record has no type (got {kind!r})"
    if decode is not None:
        try:
            decode(record)
        except Exception as exc:
            return None, f"undecodable {kind} record ({type(exc).__name__})"
    return record, None


#: The checkpoint format version both engines write and every reader takes.
FORMAT_VERSION = 2

#: Manifest fields that never join the identity hash: the hash itself, the
#: per-line CRC, the format version (a format change alone does not make
#: another campaign), and golden summaries (derived data, which
#: :func:`manifest_mismatch` compares after the identity fields).
_NON_IDENTITY_FIELDS = ("crc", "identity", "version", "type", "goldens")


def manifest_identity(manifest: Dict[str, object]) -> str:
    """The expected ``identity`` hash for a manifest record: a content hash
    of its campaign-identity fields.

    Survives reserialization (repair, merge) that a raw-bytes CRC would
    not, so it pins *which campaign* a file belongs to, not which bytes.
    """
    fields = {
        key: value
        for key, value in manifest.items()
        if key not in _NON_IDENTITY_FIELDS
    }
    payload = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


def manifest_mismatch(
    recorded: Dict[str, object], expected: Dict[str, object], other: str
) -> Optional[str]:
    """Why a checkpoint whose manifest is ``recorded`` is not one of
    ``other``, whose manifest is ``expected``, or None: the first field
    :func:`manifest_identity` hashes that differs, else the first
    benchmark whose golden run differs (its program was built otherwise,
    say at another scale). Resume and merge decide by this one rule."""
    fields = (set(recorded) | set(expected)) - set(_NON_IDENTITY_FIELDS)
    mine, theirs = recorded.get("goldens", {}), expected.get("goldens", {})
    checks = [
        (f"{key}=", recorded.get(key), expected.get(key))
        for key in sorted(fields)
    ] + [
        (f"golden run of {name} ", mine.get(name), theirs.get(name))
        for name in sorted(set(mine) | set(theirs))
    ]
    for what, have, want in checks:
        if have != want:
            return f"{what}{have!r} does not match {other}'s {what}{want!r}"
    return None


def manifest_problem(
    manifest: Dict[str, object], kind: Optional[str] = None
) -> Optional[str]:
    """Why no reader takes an intact manifest record, or None: a version
    other than :data:`FORMAT_VERSION`, or a type other than ``kind`` (or
    unknown). The strict loader and ``repro checkpoint verify`` ask; the
    per-line scan does not, so another version damages one line, not all."""
    if manifest.get("version") != FORMAT_VERSION:
        return f"unsupported checkpoint version {manifest.get('version')!r}"
    kinds = (kind,) if kind else tuple(RECORD_TYPES)
    if manifest.get("type") not in kinds:
        wanted = " or ".join(repr(k) for k in kinds)
        return f"manifest type {manifest.get('type')!r}, not {wanted}"
    return None


#: Data record types by manifest type, as ``(result, failure)``. A result
#: supersedes a failure for the same key (a retry that succeeded). Each
#: engine decodes only its own family, so a CRC-valid record of the other
#: family is damage, not data.
RECORD_TYPES = {
    "manifest": ("result", "failure"),
    "fuzz-manifest": ("eval", "eval-failure"),
}


def record_key(record: Dict[str, object]) -> object:
    """The dedup key of a data record: campaign records use ``key``, fuzz
    records use ``index`` (both families always carry ``index``)."""
    return record.get("key", record.get("index"))


def canonical_winner(
    a: Dict[str, object], b: Dict[str, object]
) -> Dict[str, object]:
    """Deterministic choice between two records claiming the same key and
    role (two results, or two failures): the lexicographically smaller
    canonical payload wins. Result records for one key are
    classification-identical by construction — only wall-clock metadata
    can differ — so any *stable* rule is correct; a content-based one
    makes shard merges independent of argument order."""
    return a if canonical_payload(a) <= canonical_payload(b) else b


def merge_shard(
    done: Dict[object, Dict[str, object]],
    failures: Dict[object, Dict[str, object]],
    shard_done: Dict[object, Dict[str, object]],
    shard_failures: Dict[object, Dict[str, object]],
) -> None:
    """Fold one file's deduplicated records (:func:`fold_checkpoint`) into
    ``done``/``failures`` in place.

    A result anywhere outranks a failure for its key, and two records of
    one role resolve by :func:`canonical_winner`, so merging shards gives
    the same records for any arrival order. (Within one file,
    :func:`fold_checkpoint` lets the later record win instead.)
    """
    for key, record in shard_done.items():
        if key in done:
            record = canonical_winner(done[key], record)
        done[key] = record
        failures.pop(key, None)
    for key, record in shard_failures.items():
        if key in done:
            continue
        if key in failures:
            record = canonical_winner(failures[key], record)
        failures[key] = record


def scan_checkpoint(
    path: str,
    decode: Optional[Callable[[Dict[str, object]], None]] = None,
) -> ScanReport:
    """Full integrity scan: every line classified, nothing raised.

    ``decode`` (optional) is handed each intact non-manifest record and
    should raise if the record's *structure* is wrong even though its JSON
    and CRC are fine — damage that was sealed in, by a faulty writer or a
    hand edit that recomputed the CRC.
    """
    report, _, _ = fold_checkpoint(path, decode, keep_records=False)
    return report


def fold_checkpoint(
    path: str,
    decode: Optional[Callable[[Dict[str, object]], None]] = None,
    keep_records: bool = True,
) -> Tuple[
    ScanReport, Dict[object, Dict[str, object]], Dict[object, Dict[str, object]]
]:
    """Scan *and* dedup: ``(report, done, failures)`` with later-record-wins
    semantics (a result record supersedes a failure record for the same
    key; a later record for a key replaces an earlier one). Damaged lines
    land in the report, never raise; so does any record outside the
    manifest's family (:data:`RECORD_TYPES`).

    With ``keep_records=False`` the dicts map each key to ``None`` instead
    of the record, so a pure integrity scan of a multi-GB file stays O(keys)
    rather than O(file) in memory.
    """
    report = ScanReport(path=path)
    done: Dict[object, Dict[str, object]] = {}
    failures: Dict[object, Dict[str, object]] = {}
    family: Tuple[str, ...] = ()
    for lineno, is_last, line in _walk_lines(path):
        record, reason = _check_line(line, report.manifest is not None, decode)
        if reason is None and report.manifest is not None:
            kind = record["type"]
            if kind not in family:
                record, reason = None, f"unexpected record type {kind!r}"
        if reason is not None:
            torn = is_last and reason == "unparsable JSON"
            report.issues.append(LineIssue(lineno, reason, torn_tail=torn))
            continue
        if report.manifest is None:
            report.manifest = record
            family = RECORD_TYPES.get(record["type"], ())
        else:
            report.records += 1
            kind = record["type"]
            report.by_type[kind] = report.by_type.get(kind, 0) + 1
            key = record_key(record)
            kept = record if keep_records else None
            if kind == family[0]:
                done[key] = kept
                failures.pop(key, None)
            elif key not in done:
                failures[key] = kept
        report.sealed += 1
    return report, done, failures


def load_sealed_log(
    path: str, kind: str
) -> Tuple[
    Dict[str, object],
    Dict[object, Dict[str, object]],
    Dict[object, Dict[str, object]],
]:
    """Strict load of a ``kind`` checkpoint: ``(manifest, done, failures)``
    as raw records, deduplicated by :func:`fold_checkpoint`; the engines
    decode them.

    Tolerates (and drops) exactly an unparsable *final* line — the
    signature of a killed writer — and raises :class:`CheckpointError`
    naming the line of the first interior issue (CRC missing or stale,
    damaged JSON, unexpected record type), when the file is empty or
    holds no complete record, or when :func:`manifest_problem` refuses it.
    """
    if os.path.getsize(path) == 0:
        raise CheckpointError(f"{path}: empty checkpoint file")
    report, done, failures = fold_checkpoint(path)
    if report.interior_issues:
        issue = report.interior_issues[0]
        raise CheckpointError(
            f"{path}:{issue.lineno}: corrupt record ({issue.reason})"
        )
    if report.manifest is None:
        raise CheckpointError(f"{path}: no complete records")
    problem = manifest_problem(report.manifest, kind)
    if problem is not None:
        raise CheckpointError(f"{path}: {problem}")
    return report.manifest, done, failures


# -- torn-tail truncation -----------------------------------------------------


def truncate_torn_tail(path: str, block: int = 1 << 16) -> None:
    """Drop a partial final line (no trailing newline) left by a kill, so
    appended records start on a fresh line. Streams backwards block-wise —
    O(torn tail), not O(file) — so multi-GB checkpoints open instantly."""
    with open(path, "rb+") as handle:
        handle.seek(0, os.SEEK_END)
        size = handle.tell()
        if size == 0:
            return
        handle.seek(size - 1)
        if handle.read(1) == b"\n":
            return
        end = size
        while end > 0:
            start = max(0, end - block)
            handle.seek(start)
            chunk = handle.read(end - start)
            cut = chunk.rfind(b"\n")
            if cut != -1:
                handle.truncate(start + cut + 1)
                return
            end = start
        handle.truncate(0)


# -- atomic writes ------------------------------------------------------------


def atomic_write_text(path: str, text: str, newline: Optional[str] = None) -> None:
    """Write ``text`` to ``path`` atomically: temp file in the destination
    directory, flush + fsync, then ``os.replace``. A reader (or a kill)
    never observes a half-written file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", newline=newline) as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def write_sealed_checkpoint(
    path: str,
    manifest: Dict[str, object],
    records: List[Dict[str, object]],
) -> None:
    """Write a fresh checkpoint atomically: manifest first, data records in
    canonical task order, everything (re-)sealed with a CRC and the
    manifest's identity hash recomputed. Shared by ``repro checkpoint
    repair`` and ``merge``."""
    manifest = dict(manifest)
    manifest["identity"] = manifest_identity(manifest)
    lines = [json.dumps(seal_record(manifest), sort_keys=True)]
    for record in sorted(records, key=lambda r: r.get("index", 0)):
        lines.append(json.dumps(seal_record(record), sort_keys=True))
    atomic_write_text(path, "\n".join(lines) + "\n")


# -- single-writer locking ----------------------------------------------------


def lock_path_for(checkpoint_path: str) -> str:
    return checkpoint_path + ".lock"


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except OSError as exc:
        # EPERM: the process exists but belongs to someone else.
        return exc.errno == errno.EPERM
    return True


class CheckpointLock:
    """Sidecar single-writer lock for one checkpoint file.

    The lock is ``<checkpoint>.lock`` holding ``{"pid", "host",
    "created"}``; its mtime is the heartbeat, refreshed by the writer (at
    most once per :data:`HEARTBEAT_INTERVAL_S`) on every append. A second
    run refuses to start with an actionable message. Takeover happens when
    the heartbeat is older than ``stale_after_s``, or immediately when the
    owner recorded the *same host* and its PID is provably dead — PID
    liveness carries no signal across machines (the number may be live
    here and dead there, or vice versa), so cross-host locks and legacy
    locks without a recorded host are never taken over on PID evidence
    alone.
    """

    #: Minimum seconds between heartbeat mtime refreshes.
    HEARTBEAT_INTERVAL_S = 5.0

    #: Default heartbeat age after which a lock may be taken over.
    STALE_AFTER_S = 600.0

    def __init__(
        self, checkpoint_path: str, stale_after_s: float = STALE_AFTER_S
    ) -> None:
        self.path = lock_path_for(checkpoint_path)
        self.checkpoint_path = checkpoint_path
        self.stale_after_s = stale_after_s
        self._held = False
        self._last_beat = 0.0

    # -- lifecycle ------------------------------------------------------------

    def acquire(self) -> "CheckpointLock":
        payload = json.dumps(
            {
                "pid": os.getpid(),
                "host": socket.gethostname(),
                "created": time.time(),
            },
            sort_keys=True,
        )
        for _ in range(2):  # second pass after a stale-lock removal
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                self._contend()
                continue
            with os.fdopen(fd, "w") as handle:
                handle.write(payload + "\n")
            self._held = True
            self._last_beat = time.monotonic()
            return self
        raise CheckpointLockedError(
            f"{self.checkpoint_path}: could not acquire the writer lock "
            f"{self.path} (lost a takeover race to another run)"
        )

    def _contend(self) -> None:
        """An existing lock: take over if stale/dead, else refuse loudly."""
        try:
            with open(self.path) as handle:
                owner = json.loads(handle.read())
            age = time.time() - os.path.getmtime(self.path)
        except (OSError, json.JSONDecodeError):
            # Vanished (owner just released) or unreadable (half-written
            # by a killed owner): treat as stale and race for it.
            self._remove_quietly()
            return
        pid = owner.get("pid")
        host = owner.get("host")
        # PID liveness is only meaningful on the host that recorded the
        # lock: once checkpoints travel between machines (shard files on a
        # shared filesystem), the same PID number may belong to a live but
        # unrelated process here — or the owner may be perfectly alive
        # over there. So the dead-PID fast path requires an explicit,
        # matching hostname in the sidecar; locks from other hosts (or
        # legacy locks that never recorded one) can only age out via the
        # heartbeat.
        same_host = isinstance(host, str) and host == socket.gethostname()
        dead = same_host and isinstance(pid, int) and not _pid_alive(pid)
        if dead or age > self.stale_after_s:
            self._remove_quietly()
            return
        raise CheckpointLockedError(
            f"{self.checkpoint_path}: another run (pid {pid} on "
            f"{host if host is not None else 'an unrecorded host'}, "
            f"heartbeat {age:.0f}s ago) holds the writer lock {self.path}; "
            f"two writers would interleave and corrupt the checkpoint. "
            f"If that run is dead, delete the lock file or retry after "
            f"{self.stale_after_s:.0f}s without a heartbeat."
        )

    def _remove_quietly(self) -> None:
        try:
            os.unlink(self.path)
        except OSError:
            pass

    def heartbeat(self) -> None:
        """Refresh the lock mtime (rate-limited); call on every append."""
        if not self._held:
            return
        now = time.monotonic()
        if now - self._last_beat < self.HEARTBEAT_INTERVAL_S:
            return
        self._last_beat = now
        try:
            os.utime(self.path, None)
        except OSError:  # lock dir vanished; nothing useful to do mid-run
            pass

    def release(self) -> None:
        if self._held:
            self._held = False
            self._remove_quietly()

    def __enter__(self) -> "CheckpointLock":
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()


# -- the sealed log -----------------------------------------------------------


class SealedLog:
    """The append-only, CRC-sealed JSONL log behind every checkpoint.

    A fresh log truncates ``path`` and writes ``manifest`` first; a resumed
    log drops a torn final line left by a kill and appends after the
    manifest already on disk. Every record is sealed, written as one
    sorted-key JSON line and flushed, so a process kill loses at most the
    line being written; ``fsync=True`` also ``os.fsync``'s every record,
    surviving hard machine kills at a per-record I/O cost. The
    :class:`CheckpointLock` is held until :meth:`close` and its heartbeat
    refreshes on every append, so a concurrent second writer raises
    :class:`CheckpointLockedError` instead of interleaving lines.
    """

    def __init__(
        self,
        path: str,
        manifest: Dict[str, object],
        resume: bool = False,
        fsync: bool = False,
    ) -> None:
        self.path = path
        self.fsync = fsync
        self._handle: Optional[IO[str]] = None
        self._lock = CheckpointLock(path).acquire()
        try:
            if resume:
                truncate_torn_tail(path)
                self._handle = open(path, "a")
            else:
                self._handle = open(path, "w")
                self.append(manifest)
        except BaseException:
            self.close()
            raise

    def append(self, record: Dict[str, object]) -> None:
        """Seal, write and flush one record."""
        line = json.dumps(seal_record(record), sort_keys=True) + "\n"
        torn_key = os.environ.get(ENV_TORN_APPEND)
        if torn_key and record.get("key") == torn_key:
            # Chaos hook: a deterministic SIGKILL-mid-append — half the
            # line reaches the file, no newline, and the process dies with
            # the lock still on disk. Production runs never set this.
            self._handle.write(line[: len(line) // 2])
            self._handle.flush()
            os._exit(TORN_APPEND_EXIT_STATUS)
        self._handle.write(line)
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self._lock.heartbeat()

    def close(self) -> None:
        """Close the file and release the lock; a second call is a no-op."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._lock.release()

    def __enter__(self) -> "SealedLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# -- graceful shutdown --------------------------------------------------------


class GracefulShutdown:
    """SIGINT/SIGTERM latch for an orderly stop-dispatch-and-drain.

    The first signal sets :attr:`requested` and starts the drain deadline:
    the execution layer stops submitting work, collects whatever finishes
    within :attr:`drain_s` seconds, flushes the checkpoint and returns. A
    second signal hard-exits with ``128 + signum`` — at worst that tears
    the final checkpoint line, which the torn-tail path already tolerates.

    Use as a context manager around the campaign (main thread only, where
    signal handlers can be installed); handlers are restored on exit.
    """

    def __init__(
        self,
        drain_s: float = 10.0,
        signals: Tuple[int, ...] = (signal.SIGINT, signal.SIGTERM),
    ) -> None:
        self.drain_s = drain_s
        self.signals = signals
        self.requested = False
        self.signum: Optional[int] = None
        self._deadline: Optional[float] = None
        self._previous: Dict[int, object] = {}

    def _handle(self, signum: int, frame: object) -> None:
        if self.requested:
            os._exit(128 + signum)  # second signal: hard exit, torn tail
        self.requested = True
        self.signum = signum
        self._deadline = time.monotonic() + self.drain_s

    def request(self, signum: int = signal.SIGTERM) -> None:
        """Programmatic trigger (tests, embedding without signals)."""
        self._handle(signum, None)

    def drain_remaining(self) -> float:
        """Seconds left to wait for inflight work (0 when not requested)."""
        if self._deadline is None:
            return 0.0
        return max(0.0, self._deadline - time.monotonic())

    @property
    def signal_name(self) -> str:
        if self.signum is None:
            return "shutdown"
        try:
            return signal.Signals(self.signum).name
        except ValueError:  # pragma: no cover - exotic signal number
            return f"signal {self.signum}"

    def __enter__(self) -> "GracefulShutdown":
        for signum in self.signals:
            self._previous[signum] = signal.signal(signum, self._handle)
        return self

    def __exit__(self, *exc_info: object) -> None:
        for signum, previous in self._previous.items():
            signal.signal(signum, previous)
        self._previous.clear()
