# reprolint: zone=deterministic
"""Write-ahead logging + durable snapshot chains for the tuning engine.

The gap this closes (ROADMAP "Durable ingest"): checkpoints alone lose
every statement submitted between the last checkpoint and a crash, which
for an *online* tuner corrupts the very state the algorithm reasons
about. The classic fix is the classic database one:

* every ingest-path mutation (``submit`` / ``submit_many`` / ``vote`` /
  ``materialize``) appends a record to an append-only log **before** the
  in-memory mutation, under the same lock acquisition, so log order
  equals effect order. Submissions carry their priority class when it is
  not the default, and once any non-default class has been enqueued the
  single writer also logs ``drain`` records — batch boundaries naming
  the position, count, and eligible classes of each micro-batch — so
  replay re-forms priority-interleaved batches exactly (an all-default
  history needs none: it drains FIFO and the log format stays identical
  to the pre-scheduler one);
* records are length-prefixed and CRC32-checksummed — the header's
  length field carries its own CRC, so a torn final record (the expected
  artifact of crashing mid-append) is detected and tolerated, while
  mid-file corruption — including a damaged length field — is detected
  and **refused**;
* fsyncs are group-committed: with ``fsync_interval_ms > 0`` an append
  only pays for an fsync when the interval has elapsed, batching
  many records per flush (the durability point is the fsync — records
  appended after the last fsync may be lost on crash, which is the knob's
  explicit trade);
* each successful checkpoint — published crash-atomically by
  :func:`repro.ioutil.atomic_write_json` — captures an atomic *mark*
  (highest covered sequence number + the log length holding exactly the
  records up to it) in the same ingest-lock region that snapshots the
  pending queue, then **rotates** the log: a ``floor`` record naming the
  covered sequence plus every record appended after the mark is written
  to a temp file, fsynced, and renamed over the log. Records appended
  concurrently between the mark and the rotation — fsync-acknowledged
  mutations the snapshot does not cover — therefore survive. Monotone
  sequence numbers make replay idempotent: a crash *between* the
  checkpoint rename and the rotation leaves covered records in the log,
  and recovery skips every record with ``seq <= wal_seq``; the floor
  record lets recovery detect (and refuse) a log whose covered prefix
  was rotated away when the covering snapshot is itself unusable.

Recovery (:meth:`Durability.recover`) loads the newest snapshot whose
chain resolves (delta snapshots are overlaid onto their base — see
:mod:`repro.service.snapshot`), replays the WAL tail, and hands back an
engine that is *step-identical* to the uninterrupted run — the property
the crash/fault-injection suite (``tests/service/test_crash_recovery.py``)
asserts at every kill point.

All filesystem access goes through a :class:`repro.ioutil.FileIO`
backend so the fault harness can substitute an in-memory
crash-consistency model.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .. import obs
from ..ioutil import REAL_IO, FileIO, atomic_write_json
from .scheduler import DEFAULT_PRIORITY

__all__ = [
    "CorruptRecord",
    "Durability",
    "WAL_FSYNC_ENV",
    "WalError",
    "WalRecord",
    "WalScan",
    "WriteAheadLog",
    "encode_record",
    "latest_snapshot_document",
    "read_wal",
    "scan_wal",
]

# Group-commit pacing and fsync-latency reporting read the monotonic clock.
# Neither feeds tuning state: recommendations and totWork are identical for
# any fsync schedule (the property tests drive the same engine with and
# without a WAL attached).
_monotonic = time.monotonic  # reprolint: disable=R1(group-commit pacing and fsync-latency reporting only; never feeds tuning decisions)

#: Environment knob: default group-commit interval in milliseconds.
#: ``0`` (the default) fsyncs every append — maximum durability; larger
#: values batch appends per flush and bound the post-fsync loss window.
WAL_FSYNC_ENV = "REPRO_WAL_FSYNC_MS"

#: On-disk record framing: little-endian payload length, CRC32 of the
#: length field's own four bytes, CRC32(payload) — followed by the
#: compact-JSON payload itself. The header CRC is what lets a scanner
#: distinguish a *corrupted* length field (refused) from a genuinely
#: torn final record (tolerated): once the length verifies, "fewer
#: bytes than it promises" can only mean a tear.
_HEADER = struct.Struct("<III")
_LENGTH = struct.Struct("<I")

_WAL_FILENAME = "wal.log"
_SNAPSHOT_PREFIX = "snapshot-"
_SNAPSHOT_SUFFIX = ".json"


class WalError(Exception):
    """Base class for WAL failures."""


class CorruptRecord(WalError):
    """A complete record whose checksum (or JSON body) does not verify.

    Unlike a torn tail — which is the expected artifact of crashing
    mid-append and is silently tolerated — mid-file corruption means the
    log cannot be trusted at all, so readers refuse and report where.
    """

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class WalRecord:
    """One decoded log record."""

    seq: int
    kind: str            # "submit" | "submit_many" | "drain" | "vote" | "materialize" | "floor"
    payload: Dict[str, object]
    offset: int          # byte offset of the record header in the log


@dataclass(frozen=True)
class WalScan:
    """Result of scanning a log image."""

    records: Tuple[WalRecord, ...]
    valid_length: int    # bytes of complete, verified records (clean prefix)
    torn: bool           # True when trailing bytes form an incomplete record


def encode_record(seq: int, kind: str, payload: Dict[str, object]) -> bytes:
    """Frame one record: ``<length><crc32(length)><crc32(body)>`` header
    + compact JSON body."""
    body = json.dumps(
        {"seq": seq, "kind": kind, "data": payload},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    length = _LENGTH.pack(len(body))
    return _HEADER.pack(len(body), zlib.crc32(length), zlib.crc32(body)) + body


def scan_wal(data: bytes) -> WalScan:
    """Decode a log image, tolerating a torn final record.

    Raises :class:`CorruptRecord` when a *complete* record fails its CRC
    or does not decode — that is corruption, not a crash artifact, and
    replaying past it could silently diverge the recovered state.
    """
    records: List[WalRecord] = []
    offset = 0
    total = len(data)
    while offset < total:
        remaining = total - offset
        if remaining < _HEADER.size:
            return WalScan(tuple(records), offset, True)
        length, header_crc, crc = _HEADER.unpack_from(data, offset)
        # Verify the length field *before* trusting it: a corrupted
        # length would otherwise make every subsequent valid record look
        # like a torn tail — exactly the silent data loss this scanner
        # exists to refuse.
        if zlib.crc32(data[offset : offset + _LENGTH.size]) != header_crc:
            raise CorruptRecord("WAL record header checksum mismatch", offset)
        if remaining - _HEADER.size < length:
            return WalScan(tuple(records), offset, True)
        body = data[offset + _HEADER.size : offset + _HEADER.size + length]
        if zlib.crc32(body) != crc:
            raise CorruptRecord("WAL record checksum mismatch", offset)
        try:
            decoded = json.loads(body)
        except ValueError as exc:
            raise CorruptRecord(f"WAL record is not valid JSON: {exc}", offset) from exc
        if not isinstance(decoded, dict) or "seq" not in decoded or "kind" not in decoded:
            raise CorruptRecord("WAL record missing seq/kind", offset)
        records.append(
            WalRecord(
                seq=int(decoded["seq"]),
                kind=str(decoded["kind"]),
                payload=dict(decoded.get("data", {})),
                offset=offset,
            )
        )
        offset += _HEADER.size + length
    return WalScan(tuple(records), offset, False)


def read_wal(path, *, io: FileIO = REAL_IO) -> WalScan:
    """Scan the log at ``path`` (see :func:`scan_wal`)."""
    return scan_wal(io.read_bytes(path))


def resolve_fsync_interval(fsync_interval_ms: Optional[float]) -> float:
    """The effective group-commit interval: explicit arg, else the
    ``REPRO_WAL_FSYNC_MS`` environment knob, else 0 (fsync every append)."""
    if fsync_interval_ms is not None:
        return float(fsync_interval_ms)
    raw = os.environ.get(WAL_FSYNC_ENV, "").strip()
    if not raw:
        return 0.0
    return float(raw)


# Process-wide WAL instruments on the default obs registry, built lazily so
# importing the module registers nothing (same pattern as the engine's).
_WAL_INSTRUMENTS: Dict[str, object] = {}


def _wal_instruments() -> Dict[str, object]:
    if not _WAL_INSTRUMENTS:
        registry = obs.default_registry()
        _WAL_INSTRUMENTS["records"] = registry.counter(
            "repro_wal_records_total",
            help="Records appended to submission write-ahead logs.",
        )
        _WAL_INSTRUMENTS["bytes"] = registry.counter(
            "repro_wal_bytes_total",
            help="Bytes appended to submission write-ahead logs.",
        )
        _WAL_INSTRUMENTS["fsync"] = registry.histogram(
            "repro_wal_fsync_seconds",
            help="Latency of WAL fsync calls (group commits included).",
        )
    return _WAL_INSTRUMENTS


class WriteAheadLog:
    """Append-only, CRC-framed, fsync-batched record log.

    Thread-safe: appends from concurrent submitters serialize on an
    internal lock, and the engine calls :meth:`append` while already
    holding the lock that orders the corresponding in-memory mutation, so
    sequence order equals effect order. Sequence numbers are monotone
    across :meth:`reset` (checkpoint truncation) — that is what makes
    replay after a crash *during* truncation idempotent.
    """

    def __init__(
        self,
        path,
        *,
        fsync_interval_ms: Optional[float] = None,
        next_seq: int = 1,
        truncate_to: Optional[int] = None,
        io: FileIO = REAL_IO,
    ) -> None:
        if next_seq < 1:
            raise ValueError("next_seq must be >= 1")
        self._io = io
        self._path = os.fspath(path)
        self.fsync_interval_ms = resolve_fsync_interval(fsync_interval_ms)
        self._lock = threading.Lock()
        self._handle = self._io.open_append(self._path)  # guarded-by: _lock
        if truncate_to is not None:
            # A torn tail from a previous crash: cut back to the clean
            # prefix so new appends extend verified records, not garbage.
            self._io.truncate(self._handle, truncate_to)
            self._io.fsync(self._handle)
            end_offset = truncate_to
        else:
            end_offset = self._io.file_size(self._path)
        self._end_offset = end_offset  # guarded-by: _lock
        # Checkpoint boundary captured by checkpoint_mark(): (seq, byte
        # offset) of the prefix the in-flight snapshot covers. reset()
        # rotates out exactly this prefix, so records appended after the
        # mark survive.
        self._mark: Optional[Tuple[int, int]] = None  # guarded-by: _lock
        self._next_seq = next_seq  # guarded-by: _lock
        self._appended_seq = next_seq - 1  # guarded-by: _lock
        self._synced_seq = next_seq - 1  # guarded-by: _lock
        self._last_fsync_monotonic: Optional[float] = None  # guarded-by: _lock
        self._records_appended = 0  # guarded-by: _lock
        self._bytes_appended = 0  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock

    @property
    def path(self) -> str:
        return self._path

    @property
    def appended_seq(self) -> int:
        """Sequence number of the last appended record (0 when none)."""
        with self._lock:
            return self._appended_seq

    @property
    def synced_seq(self) -> int:
        """Sequence number of the last record known durable."""
        with self._lock:
            return self._synced_seq

    @property
    def records_appended(self) -> int:
        with self._lock:
            return self._records_appended

    @property
    def bytes_appended(self) -> int:
        with self._lock:
            return self._bytes_appended

    def append(self, kind: str, payload: Dict[str, object]) -> int:
        """Append one record; returns its sequence number.

        With ``fsync_interval_ms == 0`` the record is durable on return.
        Otherwise durability lags by at most the interval (group commit);
        :meth:`sync` forces it.
        """
        with self._lock:
            if self._closed:
                raise WalError("write-ahead log is closed")
            seq = self._next_seq
            record = encode_record(seq, kind, payload)
            # No per-append flush: records sit in the user-space buffer
            # until the next group commit (fsync flushes first), which is
            # fine — unflushed and unfsynced bytes are equally volatile,
            # and the durability contract only covers fsynced records.
            self._io.write(self._handle, record)
            self._end_offset += len(record)
            self._next_seq = seq + 1
            self._appended_seq = seq
            self._records_appended += 1
            self._bytes_appended += len(record)
            if self.fsync_interval_ms <= 0.0:
                self._fsync_locked()
            else:
                now = _monotonic()
                last = self._last_fsync_monotonic
                if last is None or (now - last) * 1000.0 >= self.fsync_interval_ms:
                    self._fsync_locked()
            if obs.state.enabled:
                instruments = _wal_instruments()
                instruments["records"].inc()  # type: ignore[union-attr]
                instruments["bytes"].inc(len(record))  # type: ignore[union-attr]
        return seq

    def _fsync_locked(self) -> None:  # holds: _lock
        started = _monotonic()
        self._io.fsync(self._handle)
        ended = _monotonic()
        self._last_fsync_monotonic = ended
        self._synced_seq = self._appended_seq
        if obs.state.enabled:
            _wal_instruments()["fsync"].observe(ended - started)  # type: ignore[union-attr]

    def sync(self) -> None:
        """Force all appended records durable (group-commit flush)."""
        with self._lock:
            if self._closed:
                raise WalError("write-ahead log is closed")
            if self._synced_seq < self._appended_seq or self._last_fsync_monotonic is None:
                self._fsync_locked()

    def checkpoint_mark(self) -> int:
        """Atomically capture the checkpoint boundary; returns its seq.

        The mark is the pair (last appended sequence number, log length
        holding exactly the records up to it). A later :meth:`reset`
        rotates out only this marked prefix, so records appended
        concurrently *after* the mark — acknowledged mutations the
        in-flight snapshot does not cover — survive the rotation. The
        caller must take the mark in the same critical section that
        captures the state the snapshot serializes (the engine does so
        under its ingest lock, see ``checkpoint_engine``); the returned
        seq becomes the snapshot's ``wal_seq``.
        """
        with self._lock:
            if self._closed:
                raise WalError("write-ahead log is closed")
            self._mark = (self._appended_seq, self._end_offset)
            return self._appended_seq

    def reset(self, note: Optional[Dict[str, object]] = None) -> None:
        """Rotate out the checkpoint-covered prefix of the log.

        The prefix is whatever :meth:`checkpoint_mark` captured (with no
        mark outstanding: everything currently appended). Rotation is
        crash-atomic: the survivors — a ``floor`` record naming the
        covered sequence number (``note`` is stored in its payload for
        diagnostics), plus every record appended after the mark — are
        written to a temp file, fsynced, and renamed over the log, so a
        crash at any instant leaves either the full old log (covered
        records replay as a no-op via sequence numbers) or the new log,
        whose floor record declares what was rotated away. Sequence
        numbering continues where it left off, so records appended after
        the reset are distinguishable from (and ordered after)
        everything the checkpoint covered.
        """
        with self._lock:
            if self._closed:
                raise WalError("write-ahead log is closed")
            marked_seq, marked_offset = (
                self._mark
                if self._mark is not None
                else (self._appended_seq, self._end_offset)
            )
            self._mark = None
            tail = b""
            if marked_offset < self._end_offset:
                # Acknowledged records landed after the mark: carry them
                # into the rotated log verbatim. Flush first — they may
                # still sit in the append handle's user-space buffer.
                self._io.flush(self._handle)
                tail = self._io.read_bytes(self._path)[marked_offset:]
            floor = encode_record(marked_seq, "floor", dict(note or {}))
            tmp = self._path + ".rotate"
            handle = self._io.open_write(tmp)
            try:
                self._io.write(handle, floor + tail)
                self._io.fsync(handle)
            finally:
                self._io.close(handle)
            self._io.close(self._handle)
            self._io.replace(tmp, self._path)
            self._io.fsync_dir(os.path.dirname(self._path) or ".")
            self._handle = self._io.open_append(self._path)
            self._end_offset = len(floor) + len(tail)
            self._synced_seq = self._appended_seq

    def close(self) -> None:
        """Flush outstanding records and release the file handle."""
        with self._lock:
            if self._closed:
                return
            if self._synced_seq < self._appended_seq:
                self._fsync_locked()
            self._io.close(self._handle)
            self._closed = True


def _snapshot_filename(snapshot_id: int) -> str:
    return f"{_SNAPSHOT_PREFIX}{snapshot_id:06d}{_SNAPSHOT_SUFFIX}"


def _parse_snapshot_id(name: str) -> Optional[int]:
    if not (name.startswith(_SNAPSHOT_PREFIX) and name.endswith(_SNAPSHOT_SUFFIX)):
        return None
    stem = name[len(_SNAPSHOT_PREFIX) : -len(_SNAPSHOT_SUFFIX)]
    if not stem.isdigit():
        return None
    return int(stem)


def _load_document(path, io: FileIO) -> Dict[str, object]:
    """Read one snapshot document; :class:`CorruptSnapshot` when the file
    is not a JSON object (torn writes, bit rot)."""
    from .snapshot import CorruptSnapshot

    raw = io.read_bytes(path)
    try:
        document = json.loads(raw)
    except ValueError as exc:
        raise CorruptSnapshot(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(document, dict):
        raise CorruptSnapshot(f"{path}: snapshot document must be a JSON object")
    return document


def latest_snapshot_document(directory, *, io: FileIO = REAL_IO):
    """The newest *loadable* snapshot document in ``directory`` (still
    unresolved — a delta comes back as a delta), or None when no snapshot
    loads. Used by tooling that needs snapshot metadata (the replay CLI
    reads the stashed trace parameters) without paying for a restore."""
    from .snapshot import SnapshotError

    if not io.exists(directory):
        return None
    ids = []
    for name in io.listdir(directory):
        snapshot_id = _parse_snapshot_id(name)
        if snapshot_id is not None:
            ids.append(snapshot_id)
    for snapshot_id in sorted(ids, reverse=True):
        path = os.path.join(os.fspath(directory), _snapshot_filename(snapshot_id))
        try:
            return _load_document(path, io)
        except SnapshotError:
            continue
    return None


class Durability:
    """One directory of durable engine state: ``wal.log`` + snapshot chain.

    Layout::

        <dir>/wal.log             append-only record log (rotated at checkpoint)
        <dir>/snapshot-000001.json  full snapshot (crash-atomically published)
        <dir>/snapshot-000002.json  delta, chained to 000001 by base_id
        ...

    Not thread-safe itself: :meth:`checkpoint` is an administrative
    operation driven by one coordinator (the replay CLI, a maintenance
    thread), while the WAL it owns is internally locked and fed by the
    engine's concurrent ingest path.
    """

    def __init__(
        self,
        directory,
        *,
        fsync_interval_ms: Optional[float] = None,
        full_every: int = 4,
        io: FileIO = REAL_IO,
    ) -> None:
        if full_every < 1:
            raise ValueError("full_every must be >= 1")
        self._io = io
        self._dir = os.fspath(directory)
        self._fsync_interval_ms = fsync_interval_ms
        self._full_every = full_every
        self._io.makedirs(self._dir)
        self._engine = None
        self._wal: Optional[WriteAheadLog] = None
        self._base_document: Optional[Dict[str, object]] = None
        self._deltas_since_full = 0
        ids = self._snapshot_ids()
        self._next_snapshot_id = (ids[-1] + 1) if ids else 1

    @property
    def directory(self) -> str:
        return self._dir

    @property
    def wal(self) -> Optional[WriteAheadLog]:
        return self._wal

    def _snapshot_ids(self) -> List[int]:
        if not self._io.exists(self._dir):
            return []
        ids = []
        for name in self._io.listdir(self._dir):
            snapshot_id = _parse_snapshot_id(name)
            if snapshot_id is not None:
                ids.append(snapshot_id)
        return sorted(ids)

    def _wal_file(self) -> str:
        return os.path.join(self._dir, _WAL_FILENAME)

    def snapshot_path(self, snapshot_id: int) -> str:
        return os.path.join(self._dir, _snapshot_filename(snapshot_id))

    def attach(self, engine) -> WriteAheadLog:
        """Open (or continue) the WAL and hook it into ``engine``'s ingest.

        An existing log is scanned first: sequence numbering continues
        after its last record, and a torn tail from a previous crash is
        cut back to the clean prefix before new appends land.
        """
        from .snapshot import SnapshotError

        if self._wal is not None:
            raise WalError("a WAL is already attached to this directory")
        path = self._wal_file()
        # A crash between a rotation's temp-file write and its rename can
        # leave the temp behind; it is dead weight (the rename never
        # happened, so the real log is authoritative).
        stale = path + ".rotate"
        if self._io.exists(stale):
            self._io.remove(stale)
        next_seq = 1
        truncate_to: Optional[int] = None
        if self._io.exists(path):
            scan = read_wal(path, io=self._io)
            if scan.records:
                next_seq = scan.records[-1].seq + 1
            if scan.torn:
                truncate_to = scan.valid_length
        # Sequence numbers must also clear the newest snapshot's wal_seq
        # floor: after a checkpoint truncates the log, a freshly scanned
        # (empty) WAL would otherwise restart at 1 — below the floor, and
        # recovery would wrongly skip the new records as already covered.
        for snapshot_id in reversed(self._snapshot_ids()):
            try:
                doc = _load_document(self.snapshot_path(snapshot_id), self._io)
            except SnapshotError:
                continue
            next_seq = max(next_seq, int(doc.get("wal_seq", 0)) + 1)
            break
        self._wal = WriteAheadLog(
            path,
            fsync_interval_ms=self._fsync_interval_ms,
            next_seq=next_seq,
            truncate_to=truncate_to,
            io=self._io,
        )
        # Make the log's directory entry itself durable: a file whose
        # name was never fsynced can vanish wholesale in a crash.
        self._io.fsync_dir(self._dir)
        self._load_base_document()
        self._engine = engine
        engine.attach_wal(self._wal)
        return self._wal

    def _load_base_document(self) -> None:
        """Seed delta chaining from the newest existing full snapshot."""
        from .snapshot import SNAPSHOT_VERSION, SnapshotError

        for snapshot_id in reversed(self._snapshot_ids()):
            try:
                document = _load_document(self.snapshot_path(snapshot_id), self._io)
            except SnapshotError:
                continue
            if (
                document.get("version") == SNAPSHOT_VERSION
                and document.get("kind") == "full"
            ):
                self._base_document = document
                self._deltas_since_full = len(
                    [i for i in self._snapshot_ids() if i > snapshot_id]
                )
                return

    def checkpoint(
        self,
        *,
        full: bool = False,
        extra: Optional[Dict[str, object]] = None,
        drain: bool = True,
    ) -> str:
        """Publish a crash-atomic snapshot, then rotate the WAL.

        Every ``full_every``-th checkpoint (and the first, and any with
        ``full=True``) is a full snapshot; the rest are deltas chained to
        the latest full one — they re-serialize only the parts whose work
        functions changed since the base. The WAL is rotated only *after*
        the snapshot rename is durable, and only up to the mark the
        snapshot captured — records appended concurrently with the
        publish survive the rotation. A crash between publish and
        rotation replays records the snapshot already covers, which
        sequence numbers make a no-op.
        """
        if self._engine is None or self._wal is None:
            raise WalError("no engine attached; call attach() first")
        snapshot_id = self._next_snapshot_id
        base = None
        if (
            not full
            and self._base_document is not None
            and self._deltas_since_full < self._full_every - 1
        ):
            base = self._base_document
        document = self._engine.checkpoint(
            extra=extra, drain=drain, snapshot_id=snapshot_id, base=base
        )
        path = self.snapshot_path(snapshot_id)
        atomic_write_json(path, document, io=self._io)
        self._next_snapshot_id = snapshot_id + 1
        if document.get("kind") == "full":
            self._base_document = document
            self._deltas_since_full = 0
        else:
            self._deltas_since_full += 1
        self._wal.reset(note={"snapshot_id": snapshot_id})
        return path

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()
            self._wal = None
        self._engine = None

    # -- recovery --------------------------------------------------------------

    @staticmethod
    def recover(
        directory,
        optimizer,
        transitions,
        *,
        io: FileIO = REAL_IO,
        engine_options: Optional[Dict[str, object]] = None,
    ):
        """Rebuild an engine from ``directory``; returns ``(engine, report)``.

        Walks snapshots newest-first until one loads and its chain
        resolves (corrupt or chain-broken snapshots are skipped and
        reported), then replays the WAL tail: records covered by the
        snapshot (``seq <= wal_seq``) are skipped, submissions re-enter
        the queue, and votes/materializations are applied at exactly the
        statement position they originally happened at. A torn final
        record is tolerated; mid-file corruption raises
        :class:`CorruptRecord`. Statements replayed into the queue are
        left for the caller to pump — recovery restores state, it does
        not advance it.

        Falling back past a newer-but-unusable checkpoint is refused
        (:class:`repro.service.snapshot.BrokenChain`) whenever the WAL
        provably does not cover the gap: the log's ``floor`` record (or
        the first surviving sequence number, or a skipped snapshot's own
        ``wal_seq``) shows mutations beyond the restored snapshot were
        checkpointed and rotated away — replaying would silently diverge
        from the acknowledged history, the one outcome durable ingest
        exists to prevent.
        """
        from .engine import TuningEngine
        from .snapshot import SnapshotError, restore_engine

        directory = os.fspath(directory)
        with obs.span("wal.recover"):
            document: Optional[Dict[str, object]] = None
            skipped_snapshots: List[Dict[str, object]] = []
            ids = []
            if io.exists(directory):
                for name in io.listdir(directory):
                    snapshot_id = _parse_snapshot_id(name)
                    if snapshot_id is not None:
                        ids.append(snapshot_id)
            stored_kind = None
            # Highest wal_seq declared by a skipped-but-parseable newer
            # snapshot: evidence of how far the acknowledged history
            # reached even when that snapshot cannot be restored.
            skipped_wal_floor = 0
            for snapshot_id in sorted(ids, reverse=True):
                path = os.path.join(directory, _snapshot_filename(snapshot_id))
                try:
                    raw = _load_document(path, io)
                except SnapshotError as exc:
                    skipped_snapshots.append(
                        {"snapshot_id": snapshot_id, "error": str(exc)}
                    )
                    continue
                try:
                    kind = raw.get("kind", "full")
                    candidate = Durability._resolve_document(raw, directory, io)
                    engine = restore_engine(candidate, optimizer, transitions)
                except SnapshotError as exc:
                    skipped_snapshots.append(
                        {"snapshot_id": snapshot_id, "error": str(exc)}
                    )
                    raw_seq = raw.get("wal_seq", 0)
                    if isinstance(raw_seq, int):
                        skipped_wal_floor = max(skipped_wal_floor, raw_seq)
                    continue
                document = candidate
                stored_kind = kind
                break
            else:
                engine = TuningEngine(
                    optimizer, transitions, **(engine_options or {})
                )
            wal_floor = int(document.get("wal_seq", 0)) if document else 0
            wal_path = os.path.join(directory, _WAL_FILENAME)
            records: Tuple[WalRecord, ...] = ()
            torn = False
            if io.exists(wal_path):
                scan = read_wal(wal_path, io=io)
                records = scan.records
                torn = scan.torn
            Durability._refuse_gaps(records, wal_floor, skipped_wal_floor)
            replayed = 0
            covered = 0
            for record in records:
                if record.kind == "floor" or record.seq <= wal_floor:
                    covered += 1
                    continue
                Durability._apply_record(engine, record)
                replayed += 1
            report = {
                "snapshot_id": document.get("snapshot_id") if document else None,
                "snapshot_kind": stored_kind,
                "skipped_snapshots": skipped_snapshots,
                "wal_seq_floor": wal_floor,
                "wal_records": len(records),
                "wal_replayed": replayed,
                "wal_covered": covered,
                "wal_torn_tail": torn,
                "statements_processed": engine.statements_processed,
                "queue_depth": engine.queue_depth,
            }
        return engine, report

    @staticmethod
    def _refuse_gaps(
        records: Tuple[WalRecord, ...], wal_floor: int, skipped_wal_floor: int
    ) -> None:
        """Refuse recovery that would silently drop acknowledged mutations.

        ``wal_floor`` is what the restored snapshot covers; anything
        beyond it must come out of the WAL. Three independent witnesses
        prove a hole: the log's ``floor`` record declares a higher
        rotated-away prefix than the snapshot covers; the surviving
        records do not form a contiguous ``wal_floor + 1, ...`` run; or a
        skipped newer snapshot's own ``wal_seq`` reaches past everything
        recoverable. Each means mutations between the restored snapshot
        and a later durably-published checkpoint were truncated on the
        strength of a snapshot that can no longer be restored.
        """
        from .snapshot import BrokenChain

        problems: List[str] = []
        max_floor = max(
            (r.seq for r in records if r.kind == "floor"), default=0
        )
        if max_floor > wal_floor:
            problems.append(
                f"the log's floor record says sequences <= {max_floor} were "
                f"rotated away at a checkpoint, but the restored snapshot "
                f"covers only sequences <= {wal_floor}"
            )
        fresh = [
            r for r in records if r.kind != "floor" and r.seq > wal_floor
        ]
        if fresh and fresh[0].seq != wal_floor + 1:
            problems.append(
                f"replay should resume at sequence {wal_floor + 1} but the "
                f"first surviving record is sequence {fresh[0].seq}"
            )
        for prev, nxt in zip(fresh, fresh[1:]):
            if nxt.seq != prev.seq + 1:
                problems.append(
                    f"the log jumps from sequence {prev.seq} to {nxt.seq}"
                )
                break
        highest = max(
            [wal_floor, max_floor] + [r.seq for r in records]
        )
        if skipped_wal_floor > highest:
            problems.append(
                f"a newer (skipped) snapshot covered WAL sequences <= "
                f"{skipped_wal_floor}, beyond everything recoverable "
                f"(<= {highest})"
            )
        if problems:
            raise BrokenChain(
                "refusing recovery — acknowledged mutations are missing "
                "from the snapshot chain and WAL: " + "; ".join(problems)
            )

    @staticmethod
    def _resolve_document(document: Dict[str, object], directory: str, io: FileIO):
        """Overlay a delta snapshot onto its base; full docs pass through."""
        from .snapshot import BrokenChain, resolve_chain

        if document.get("kind") != "delta":
            return document
        base_id = document.get("base_id")
        if not isinstance(base_id, int):
            raise BrokenChain(
                f"delta snapshot {document.get('snapshot_id')!r} has no base_id"
            )
        base_path = os.path.join(directory, _snapshot_filename(base_id))
        if not io.exists(base_path):
            raise BrokenChain(
                f"delta snapshot {document.get('snapshot_id')!r} references "
                f"missing base snapshot {base_id}"
            )
        base = _load_document(base_path, io)
        return resolve_chain(document, base)

    @staticmethod
    def _apply_record(engine, record: WalRecord) -> None:
        """Replay one WAL record against a recovering engine.

        The engine has no WAL attached during recovery, so replay does
        not re-log. Votes and materializations are position-gated: the
        record carries the global statement count at which the action
        originally ran, and the queue is pumped exactly that far first,
        so feedback lands on the same work-function state it mutated in
        the original run.
        """
        from ..db.index import Index

        data = record.payload
        if record.kind == "submit":
            # Records written before the priority scheduler carry no
            # "priority" key; so do new records whose resolved class was
            # the default. Either way the entry was enqueued as "normal"
            # — the session's *current* default must not apply, because
            # by replay time it may have changed.
            engine.submit(
                str(data["client_id"]),
                str(data["sql"]),
                priority=str(data.get("priority", "normal")),
            )
        elif record.kind == "submit_many":
            engine.submit_many(
                (
                    str(entry["client_id"]),
                    str(entry["sql"]),
                    str(entry.get("priority", "normal")),
                )
                for entry in data["entries"]
            )
        elif record.kind == "drain":
            # A drain record is a logged batch boundary: the single
            # writer popped `count` entries from the priority queues of
            # `classes` at statement position `position`. Re-forming the
            # batch with the same class filter and the same deterministic
            # (priority, seq) order reproduces the original analysis
            # order exactly, even when classes interleave.
            Durability._pump_to(engine, int(data["position"]), record)
            count = int(data["count"])
            classes = tuple(str(c) for c in data.get("classes") or ())
            processed = engine._replay_drain(count, classes)
            if processed < count:
                raise WalError(
                    f"WAL drain record seq {record.seq} covers {count} "
                    f"statements but only {processed} were queued in "
                    f"classes {classes!r} — the log is missing submissions"
                )
        elif record.kind == "vote":
            Durability._pump_to(engine, int(data["position"]), record)
            engine.vote(
                str(data["client_id"]),
                frozenset(Index.from_payload(p) for p in data["plus"]),
                frozenset(Index.from_payload(p) for p in data["minus"]),
            )
        elif record.kind == "materialize":
            Durability._pump_to(engine, int(data["position"]), record)
            action = data["action"]
            if action == "create":
                engine.create_index(
                    str(data["client_id"]), Index.from_payload(data["index"])
                )
            elif action == "drop":
                engine.drop_index(
                    str(data["client_id"]), Index.from_payload(data["index"])
                )
            elif action == "adopt":
                engine.adopt(
                    str(data["client_id"]),
                    lease=bool(data.get("lease", True)),
                )
            else:
                raise WalError(
                    f"unknown materialize action {action!r} (seq {record.seq})"
                )
        else:
            raise WalError(
                f"unknown WAL record kind {record.kind!r} (seq {record.seq})"
            )

    @staticmethod
    def _pump_to(engine, position: int, record: WalRecord) -> None:
        deficit = position - engine.statements_processed
        if deficit < 0:
            raise WalError(
                f"WAL record seq {record.seq} expects statement position "
                f"{position} but the engine is already past it "
                f"({engine.statements_processed})"
            )
        if deficit:
            # The deficit covers drains the log holds no records for. The
            # engine writes drain records from the first non-default
            # submission on, so every undocumented drain happened while
            # every entry ever queued was "normal", and popped those FIFO.
            # Catch up from the default class only: later re-enqueued
            # higher-class submissions did not exist at those drains.
            pumped = engine.pump(deficit, classes=(DEFAULT_PRIORITY,))
            if pumped < deficit:
                raise WalError(
                    f"WAL record seq {record.seq} expects statement position "
                    f"{position} but only {engine.statements_processed} "
                    "statements are recoverable — the log is missing "
                    "submissions (was an fsync dropped?)"
                )
