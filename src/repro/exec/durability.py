"""Artifact integrity primitives for durable campaigns.

The paper's thesis is that silent corruption must be caught *instantly*;
this module applies the same checker mindset to our own persistence layer.
Everything host-level that threatens a multi-hour JSONL checkpoint lives
here, dependency-free so every layer can use it without cycles:

* **Record sealing** — every checkpoint record carries a ``crc`` (CRC32 of
  its canonical JSON payload) and the manifest an ``identity`` content
  hash, so bit rot and hand edits are detected at read time, with line
  numbers, instead of silently skewing figure statistics.
* **One sealed log** — :class:`SealedLog` writes campaign and fuzz
  checkpoints alike (manifest first, sealed lines, flush/fsync) under its
  writer lock; the engines keep only their record codecs.
* **One reader** — :func:`fold_checkpoint` classifies every line of a
  checkpoint (intact / torn tail / interior corruption), decodes each
  intact data record once with its engine's ``decode_record`` (a record
  that does not decode is a damaged line, as a stale CRC is) and
  deduplicates; resume, ``--from-checkpoint`` and ``repro checkpoint
  verify``/``repair`` all read through it. :func:`load_sealed_log` is the
  strict loader built on it (tolerates exactly a torn final line, raises
  on anything else). :func:`manifest_mismatch` decides whether a file
  belongs to the run that resumes it.
* **Torn-tail truncation** — :func:`truncate_torn_tail` drops a partial
  final line without reading the whole file into memory.
* **Atomic writes** — :func:`atomic_write_text` writes via a temp file in
  the destination directory plus ``os.replace``, so a killed export never
  leaves a half-written figure input.
* **Single-writer locking** — :class:`SealedLog` holds an exclusive
  ``flock`` on the checkpoint file itself, so a second concurrent run
  refuses to touch it; the lock dies with its writer, so a killed or
  stopped run leaves nothing to clean up and its flushed log resumes.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import tempfile
import weakref
import zlib
from dataclasses import dataclass, field
from typing import IO, Callable, Dict, Iterator, List, Optional, Tuple

#: Exit code of a CLI run stopped by SIGINT or SIGTERM — EX_TEMPFAIL: the
#: run is incomplete but resumable, not failed.
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


# -- the one reader -----------------------------------------------------------


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
    line: str, manifest_seen: bool
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

    Like the CRC it hashes canonical JSON, so both survive repair's
    reserialization; unlike the CRC it skips :data:`_NON_IDENTITY_FIELDS`,
    so it pins *which campaign* a file belongs to (not its format version
    or golden summaries), and a hand edit that reseals the CRC breaks it.
    """
    fields = {
        key: value
        for key, value in manifest.items()
        if key not in _NON_IDENTITY_FIELDS
    }
    payload = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


def manifest_mismatch(
    recorded: Dict[str, object], expected: Dict[str, object]
) -> Optional[str]:
    """Why a checkpoint whose manifest is ``recorded`` is not one of the
    run whose manifest is ``expected``, or None: the first field
    :func:`manifest_identity` hashes that differs, else the first
    benchmark whose golden run differs (its program was built otherwise,
    say at another scale). A field that is a dict on both sides (a design
    point, fuzz ``limits``) is named down to its first differing key in
    sorted order, as ``design_point.width``. Every resume decides by this
    one rule."""
    fields = (set(recorded) | set(expected)) - set(_NON_IDENTITY_FIELDS)
    mine, theirs = recorded.get("goldens", {}), expected.get("goldens", {})
    checks = []
    for key in sorted(fields):
        have, want = recorded.get(key), expected.get(key)
        if isinstance(have, dict) and isinstance(want, dict):
            checks += [
                (f"{key}.{sub}=", have.get(sub), want.get(sub))
                for sub in sorted(set(have) | set(want))
            ]
        else:
            checks.append((f"{key}=", have, want))
    checks += [
        (f"golden run of {name} ", mine.get(name), theirs.get(name))
        for name in sorted(set(mine) | set(theirs))
    ]
    for what, have, want in checks:
        if have != want:
            return f"{what}{have!r} does not match this run's {what}{want!r}"
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
    records use ``index``; a record with neither raises ``KeyError``."""
    return record["key"] if "key" in record else record["index"]


def fold_checkpoint(
    path: str,
    decode: Callable[[Dict[str, object]], object] = lambda record: record,
) -> Tuple[ScanReport, Dict[object, object], Dict[object, object]]:
    """The one reader of a sealed log: ``(report, done, failures)``.

    Every line is checked (JSON, CRC, the manifest's identity, the record
    family of :data:`RECORD_TYPES`), and every intact data record is handed
    to ``decode`` once; ``done`` and ``failures`` map each key to what
    ``decode`` returned (by default the record itself), later-record-wins:
    a result record supersedes a failure record for the same key, and a
    later record for a key replaces an earlier one. A record whose key or
    fields do not decode — damage sealed in by a faulty writer or by a
    hand edit that recomputed the CRC — is a damaged line, as a CRC
    mismatch is. Damaged lines land in the report, never raise.

    Only the first line is a manifest candidate. When it is damaged, each
    later line is checked as a data line (JSON, CRC, a type) and counted,
    but neither family-checked nor decoded: one damaged line reads as one.
    """
    report = ScanReport(path=path)
    done: Dict[object, object] = {}
    failures: Dict[object, object] = {}
    family: Tuple[str, ...] = ()
    first = True
    for lineno, is_last, line in _walk_lines(path):
        record, reason = _check_line(line, manifest_seen=not first)
        if reason is None and report.manifest is not None:
            kind = record["type"]
            if kind not in family:
                reason = f"unexpected record type {kind!r}"
            else:
                try:
                    key, value = record_key(record), decode(record)
                except Exception as exc:
                    reason = f"undecodable {kind} record ({type(exc).__name__})"
        if reason is not None:
            torn = is_last and reason == "unparsable JSON"
            report.issues.append(LineIssue(lineno, reason, torn_tail=torn))
        elif first:
            report.manifest = record
            family = RECORD_TYPES.get(record["type"], ())
        else:
            kind = record["type"]
            report.records += 1
            report.by_type[kind] = report.by_type.get(kind, 0) + 1
            if report.manifest is None:
                pass  # a damaged manifest names no family to decode by
            elif kind == family[0]:
                done[key] = value
                failures.pop(key, None)
            elif key not in done:
                failures[key] = value
        first = False
    return report, done, failures


def load_sealed_log(
    path: str, kind: str, decode: Callable[[Dict[str, object]], object]
) -> Tuple[Dict[str, object], Dict[object, object], Dict[object, object]]:
    """Strict load of a ``kind`` checkpoint: ``(manifest, done, failures)``,
    each data record decoded once by ``decode`` (its engine's
    ``decode_record``) and deduplicated by :func:`fold_checkpoint`.

    Tolerates (and drops) exactly an unparsable *final* line — the
    signature of a killed writer — and raises :class:`CheckpointError`
    naming the line of the first interior issue (CRC missing or stale,
    damaged JSON, unexpected record type, a record ``decode`` refuses),
    when the file is empty or holds no complete record, or when
    :func:`manifest_problem` refuses it.
    """
    if os.path.getsize(path) == 0:
        raise CheckpointError(f"{path}: empty checkpoint file")
    report, done, failures = fold_checkpoint(path, decode)
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
    manifest's identity hash recomputed, as ``repro checkpoint repair``
    writes its salvage."""
    manifest = dict(manifest)
    manifest["identity"] = manifest_identity(manifest)
    lines = [json.dumps(seal_record(manifest), sort_keys=True)]
    for record in sorted(records, key=lambda r: r.get("index", 0)):
        lines.append(json.dumps(seal_record(record), sort_keys=True))
    atomic_write_text(path, "\n".join(lines) + "\n")


# -- the sealed log -----------------------------------------------------------


#: Every open :class:`SealedLog`, so a forked child can drop its copies.
_OPEN_LOGS: "weakref.WeakSet[SealedLog]" = weakref.WeakSet()


def _drop_inherited_logs() -> None:
    """In a forked child, point each inherited checkpoint descriptor at
    ``/dev/null``: the child's share of the open file would keep the
    writer lock alive after the parent dies. Unlocking instead would
    release the parent's lock too, and closing would free a number that
    the child's copy of the handle still names."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    for log in _OPEN_LOGS:
        os.dup2(devnull, log._handle.fileno(), inheritable=False)
    os.close(devnull)


os.register_at_fork(after_in_child=_drop_inherited_logs)


class SealedLog:
    """The append-only, CRC-sealed JSONL log behind every checkpoint.

    Opening the log takes an exclusive ``flock`` on ``path``, held until
    :meth:`close`, so a second writer raises :class:`CheckpointLockedError`
    at once and leaves the file as it was. Nothing is written before
    :meth:`begin`, so the writer may build its manifest and refuse a
    resumed file in between. The lock dies with its writer, and a forked
    child drops its share at fork.

    Every record is sealed, written as one sorted-key JSON line and
    flushed, so a process kill loses at most the line being written;
    ``fsync=True`` also ``os.fsync``'s every record, surviving hard machine
    kills at a per-record I/O cost.
    """

    def __init__(
        self, path: str, resume: bool = False, fsync: bool = False
    ) -> None:
        self.path = path
        self.resume = resume
        self.fsync = fsync
        flags = os.O_WRONLY | os.O_APPEND | (0 if resume else os.O_CREAT)
        fd = os.open(path, flags, 0o666)
        self._handle: Optional[IO[str]] = open(fd, "a")
        _OPEN_LOGS.add(self)
        try:
            try:
                fcntl.flock(self._handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise CheckpointLockedError(
                    f"{path}: another run holds this checkpoint's writer "
                    "lock; two writers would interleave and corrupt it"
                ) from None
        except BaseException:
            self.close()
            raise

    def begin(self, manifest: Dict[str, object]) -> None:
        """Start writing: a fresh log truncates the file and appends
        ``manifest``; a resumed log, whose file holds its manifest, drops
        a torn final line."""
        if self.resume:
            truncate_torn_tail(self.path)
        else:
            self._handle.truncate(0)
            self.append(manifest)

    def append(self, record: Dict[str, object]) -> None:
        """Seal, write and flush one record."""
        line = json.dumps(seal_record(record), sort_keys=True) + "\n"
        torn_key = os.environ.get(ENV_TORN_APPEND)
        if torn_key and record.get("key") == torn_key:
            # Chaos hook: a deterministic SIGKILL-mid-append — half the
            # line reaches the file, no newline, and the process dies
            # (the kernel drops its lock). Production runs never set this.
            self._handle.write(line[: len(line) // 2])
            self._handle.flush()
            os._exit(TORN_APPEND_EXIT_STATUS)
        self._handle.write(line)
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Close the file, releasing the lock; a second call is a no-op."""
        if self._handle is not None:
            _OPEN_LOGS.discard(self)
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SealedLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
