# reprolint: zone=deterministic
"""Write-ahead logging + durable snapshots for the tuning engine.

The gap this closes (ROADMAP "Durable ingest"): checkpoints alone lose
every statement submitted between the last checkpoint and a crash, which
for an *online* tuner corrupts the very state the algorithm reasons
about. The classic fix is the classic database one:

* every ingest-path mutation (``submit`` / ``submit_many`` / ``vote`` /
  ``materialize``) appends a record to an append-only log **before** the
  in-memory mutation, under the same lock acquisition, so log order
  equals effect order. Once any non-default priority class has been
  enqueued, the single writer also logs ``drain`` records, the batch
  boundaries replay needs to re-form priority-interleaved batches. The
  engine (:mod:`repro.service.engine`) builds and replays every record
  payload; this module frames, scans, group-commits and rotates the log,
  walks the snapshots and refuses gaps;
* records are length-prefixed and CRC32-checksummed — the header's
  length field carries its own CRC, so a torn final record (the expected
  artifact of crashing mid-append) is detected and tolerated, while
  mid-file corruption — including a damaged length field — is detected
  and **refused**;
* ordering and durability are separate steps, and fsyncs are
  group-committed: :meth:`WriteAheadLog.append` only writes, and the
  engine calls :meth:`WriteAheadLog.sync_to` after it leaves the
  critical section that ordered the record, so the single writer can
  analyze a statement while its submitter waits for the disk. The first
  caller whose record no fsync covers yet fsyncs everything appended so
  far, holding no lock; callers an in-flight fsync covers wait for it
  instead of issuing another. ``fsync_interval_ms`` defaults to 0, where
  ``sync_to`` always returns a durable record. With
  ``fsync_interval_ms > 0`` a ``sync_to`` skips the fsync while the last
  one is younger than the interval, so a record becomes durable only at
  the first ``sync_to`` after the interval, at
  :meth:`~WriteAheadLog.sync` or at :meth:`~WriteAheadLog.close` — an
  idle log can hold records unsynced indefinitely, and a crash loses
  them (the knob's explicit trade);
* a failed fsync is sticky: after it, every append, sync, checkpoint
  mark and rotation raises :class:`WalError` naming the failure. A later
  fsync that succeeded could otherwise make the failed call's record
  durable behind an acknowledged one, and the kernel may already have
  dropped the pages the failure left unwritten;
* each successful checkpoint — published crash-atomically by
  :func:`repro.ioutil.atomic_write_json` — captures an atomic *mark*
  (highest covered sequence number + the log length holding exactly the
  records up to it) in the same ingest-lock region that snapshots the
  pending queue, is published only once the records up to the mark are
  durable (so a failed fsync aborts it before anything is published),
  then **rotates** the log: a ``floor`` record naming the
  covered sequence plus every record appended after the mark is written
  to a temp file, fsynced, and renamed over the log. Records appended
  concurrently between the mark and the rotation — fsync-acknowledged
  mutations the snapshot does not cover — therefore survive. Monotone
  sequence numbers make replay idempotent: a crash *between* the
  checkpoint rename and the rotation leaves covered records in the log,
  and recovery skips every record with ``seq <= wal_seq``; the floor
  record lets recovery detect (and refuse) a log whose covered prefix
  was rotated away when the covering snapshot is itself unusable.

Every checkpoint is one self-contained snapshot document (see
:mod:`repro.service.snapshot`). Recovery (:meth:`Durability.recover`)
restores the newest usable snapshot, hands each record of the WAL tail
to the engine's replay (``TuningEngine._replay``), and returns an engine
that is *step-identical* to the uninterrupted run — the
property the crash/fault-injection suite
(``tests/service/test_crash_recovery.py``) asserts at every kill point.

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

__all__ = [
    "CorruptRecord",
    "Durability",
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
    """A complete record whose checksum (or JSON body) does not verify, or
    whose payload does not decode at replay (``seq`` names the record).

    Unlike a torn tail — which is the expected artifact of crashing
    mid-append and is silently tolerated — mid-file corruption means the
    log cannot be trusted at all, so readers refuse and report where.
    """

    def __init__(
        self, message: str, offset: int, *, seq: Optional[int] = None
    ) -> None:
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset
        self.seq = seq


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
    """Append-only, CRC-framed, group-committed record log.

    Ordering and durability are two calls. :meth:`append` writes one
    record under the append lock and returns its sequence number; it
    never fsyncs. :meth:`sync_to` returns once that record is durable.
    The engine appends inside the critical section that orders the
    record's in-memory effect, so sequence order equals effect order, and
    syncs after leaving it. Readers may therefore see an effect whose
    record is not durable yet; it survives a crash only if its record
    reached disk.

    Group commit needs no thread of its own: the first :meth:`sync_to`
    caller whose record is not yet covered becomes the leader and fsyncs
    everything appended so far, with no lock held, so appends continue
    meanwhile. A caller whose record a finished or in-flight fsync covers
    returns without issuing another. :meth:`reset` and :meth:`close`
    wait for an in-flight fsync before they swap or close the handle.

    A failed fsync is sticky: the leader's call re-raises the error, and
    from then on :meth:`append`, :meth:`sync_to`, :meth:`sync`,
    :meth:`checkpoint_mark` and :meth:`reset` raise :class:`WalError`
    naming it, while :meth:`close` only releases the handle. Nothing is
    acknowledged after a lost fsync. Sequence numbers are monotone
    across :meth:`reset` (checkpoint truncation) — that is what makes
    replay after a crash *during* truncation idempotent.
    """

    def __init__(
        self,
        path,
        *,
        fsync_interval_ms: float = 0.0,
        next_seq: int = 1,
        truncate_to: Optional[int] = None,
        io: FileIO = REAL_IO,
    ) -> None:
        if next_seq < 1:
            raise ValueError("next_seq must be >= 1")
        self._io = io
        self._path = os.fspath(path)
        self.fsync_interval_ms = float(fsync_interval_ms)
        self._lock = threading.Lock()
        # Notified under _lock whenever an fsync ends or fails, so
        # followers and a waiting reset()/close() re-check.
        self._fsync_done = threading.Condition(self._lock)
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
        # The last record the in-flight fsync covers; None when no fsync
        # is in flight.
        self._syncing_to: Optional[int] = None  # guarded-by: _lock
        self._last_fsync_monotonic: Optional[float] = None  # guarded-by: _lock
        self._failure: Optional[BaseException] = None  # guarded-by: _lock
        self._records_appended = 0  # guarded-by: _lock
        self._bytes_appended = 0  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock

    @property
    def path(self) -> str:
        return self._path

    @property
    def records_appended(self) -> int:
        with self._lock:
            return self._records_appended

    @property
    def bytes_appended(self) -> int:
        with self._lock:
            return self._bytes_appended

    def _check_usable(self) -> None:  # holds: _lock
        if self._failure is not None:
            raise WalError(
                f"write-ahead log is unusable: an fsync failed "
                f"({self._failure!r}), so no later record can be made "
                "durable"
            ) from self._failure
        if self._closed:
            raise WalError("write-ahead log is closed")

    def append(self, kind: str, payload: Dict[str, object]) -> int:
        """Write one record; returns its sequence number.

        The record is not durable on return: pass the sequence number to
        :meth:`sync_to` once the caller has left the critical section
        that orders the record's effect.
        """
        with self._lock:
            self._check_usable()
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
            if obs.state.enabled:
                instruments = _wal_instruments()
                instruments["records"].inc()  # type: ignore[union-attr]
                instruments["bytes"].inc(len(record))  # type: ignore[union-attr]
        return seq

    def sync_to(self, seq: int) -> None:
        """Return once record ``seq`` is durable (group commit).

        With ``fsync_interval_ms == 0`` the record is durable on return.
        With an interval, a call returns at once while an fsync is in
        flight or the last one ended less than the interval ago; the
        record then becomes durable at the first ``sync_to`` after the
        interval, at :meth:`sync` or at :meth:`close`, and an idle log
        can hold it unsynced indefinitely.
        """
        self._sync(seq, paced=self.fsync_interval_ms > 0.0)

    def sync(self) -> None:
        """Force every appended record durable, whatever the interval."""
        with self._lock:
            self._check_usable()
            seq = self._appended_seq
        self._sync(seq, paced=False)

    def _sync(self, seq: int, *, paced: bool) -> None:
        with self._lock:
            while True:
                if self._failure is None and self._synced_seq >= seq:
                    return
                self._check_usable()
                if paced and (
                    self._syncing_to is not None
                    or (
                        self._last_fsync_monotonic is not None
                        and (_monotonic() - self._last_fsync_monotonic) * 1000.0
                        < self.fsync_interval_ms
                    )
                ):
                    return
                if self._syncing_to is None:
                    break
                self._fsync_done.wait()
            # Lead: cover everything appended so far in one fsync, issued
            # outside the lock so appends (and the engine's writer) go on.
            target = self._syncing_to = self._appended_seq
            handle = self._handle
        try:
            ended = self._fsync(handle)
        except BaseException as exc:
            with self._lock:
                self._failure = exc
                self._syncing_to = None
                self._fsync_done.notify_all()
            raise
        with self._lock:
            self._syncing_to = None
            self._last_fsync_monotonic = ended
            self._synced_seq = max(self._synced_seq, target)
            self._fsync_done.notify_all()

    def _fsync(self, handle) -> float:
        """fsync ``handle``; returns the monotonic time it finished."""
        started = _monotonic()
        self._io.fsync(handle)
        ended = _monotonic()
        if obs.state.enabled:
            _wal_instruments()["fsync"].observe(ended - started)  # type: ignore[union-attr]
        return ended

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
            self._check_usable()
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
        everything the checkpoint covered. An in-flight fsync of the old
        log finishes first; the rotation's own fsync then covers every
        record appended so far.
        """
        with self._lock:
            while self._syncing_to is not None:
                self._fsync_done.wait()
            self._check_usable()
            marked_seq, marked_offset = (
                self._mark
                if self._mark is not None
                else (self._appended_seq, self._end_offset)
            )
            self._mark = None
            tail = b""
            if marked_offset < self._end_offset:
                # Records landed after the mark: carry them into the
                # rotated log verbatim. Flush first — they may still sit
                # in the append handle's user-space buffer.
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
        """Make outstanding records durable and release the file handle.

        After a failed fsync it only releases the handle. A
        :meth:`sync_to` racing ``close`` returns once close's final fsync
        covers its record.
        """
        with self._lock:
            if self._closed:
                return
            while self._syncing_to is not None:
                self._fsync_done.wait()
            try:
                if self._failure is None and self._synced_seq < self._appended_seq:
                    self._fsync(self._handle)
                    self._synced_seq = self._appended_seq
            except BaseException as exc:
                self._failure = exc
                raise
            finally:
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


def _snapshot_ids(directory, io: FileIO) -> List[int]:
    """Ids of the snapshot files in ``directory``, oldest first."""
    if not io.exists(directory):
        return []
    ids = []
    for name in io.listdir(directory):
        snapshot_id = _parse_snapshot_id(name)
        if snapshot_id is not None:
            ids.append(snapshot_id)
    return sorted(ids)


def latest_snapshot_document(directory, *, io: FileIO = REAL_IO):
    """The newest *loadable* snapshot document in ``directory``, or None
    when no snapshot loads. Parsing is all it checks — the document may
    still be one :func:`repro.service.snapshot.restore_engine` refuses.
    Used for snapshot metadata without paying for a restore: the WAL's
    sequence floor, and the trace parameters the replay CLI stashes."""
    from .snapshot import SnapshotError

    for snapshot_id in reversed(_snapshot_ids(directory, io)):
        path = os.path.join(os.fspath(directory), _snapshot_filename(snapshot_id))
        try:
            return _load_document(path, io)
        except SnapshotError:
            continue
    return None


class Durability:
    """One directory of durable engine state: ``wal.log`` + snapshots.

    Layout::

        <dir>/wal.log               append-only record log (rotated at checkpoint)
        <dir>/snapshot-000001.json  self-contained snapshot (crash-atomically published)
        <dir>/snapshot-000002.json  ...

    Not thread-safe itself: :meth:`checkpoint` is an administrative
    operation driven by one coordinator (the replay CLI, a maintenance
    thread), while the WAL it owns is internally locked and fed by the
    engine's concurrent ingest path.
    """

    def __init__(
        self,
        directory,
        *,
        fsync_interval_ms: float = 0.0,
        io: FileIO = REAL_IO,
    ) -> None:
        self._io = io
        self._dir = os.fspath(directory)
        self._fsync_interval_ms = fsync_interval_ms
        self._io.makedirs(self._dir)
        self._engine = None
        self._wal: Optional[WriteAheadLog] = None
        ids = _snapshot_ids(self._dir, self._io)
        self._next_snapshot_id = (ids[-1] + 1) if ids else 1

    @property
    def directory(self) -> str:
        return self._dir

    @property
    def wal(self) -> Optional[WriteAheadLog]:
        return self._wal

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
        newest = latest_snapshot_document(self._dir, io=self._io)
        if newest is not None:
            next_seq = max(next_seq, int(newest.get("wal_seq", 0)) + 1)
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
        self._engine = engine
        engine.attach_wal(self._wal)
        return self._wal

    def checkpoint(
        self,
        *,
        extra: Optional[Dict[str, object]] = None,
        drain: bool = True,
    ) -> str:
        """Publish a crash-atomic snapshot, then rotate the WAL; returns
        the snapshot's path.

        The snapshot is published only once every record it covers is
        durable, whatever the fsync interval: if one of their fsyncs
        fails, the checkpoint raises and publishes nothing, so no
        snapshot holds the effect of a call that failed.

        The WAL is rotated only *after* the snapshot rename is durable,
        and only up to the mark the snapshot captured — records appended
        concurrently with the publish survive the rotation. A crash
        between publish and rotation replays records the snapshot already
        covers, which sequence numbers make a no-op.
        """
        if self._engine is None or self._wal is None:
            raise WalError("no engine attached; call attach() first")
        snapshot_id = self._next_snapshot_id
        document = self._engine.checkpoint(
            extra=extra, drain=drain, snapshot_id=snapshot_id
        )
        # Publish only durable effects: a covered record whose fsync is
        # still in flight may fail, and its caller then sees an error the
        # snapshot must not contradict. A failed fsync raises here.
        self._wal.sync()
        path = self.snapshot_path(snapshot_id)
        # Compact (no indent): json.dumps then runs its C encoder, and
        # the file drops the indentation's whitespace.
        atomic_write_json(path, document, indent=None, io=self._io)
        self._next_snapshot_id = snapshot_id + 1
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

        Walks snapshots newest-first until one restores (corrupt or
        unrestorable snapshots are skipped and reported; with none left,
        a fresh engine built with ``engine_options`` replays the whole
        log), then replays the WAL tail: records covered by the
        snapshot (``seq <= wal_seq``) are skipped, and the engine
        re-applies every other one (``TuningEngine._replay``). A torn
        final record is tolerated; mid-file corruption, or a record whose
        payload does not decode, raises :class:`CorruptRecord`.
        Statements replayed into the queue are left for the caller to
        pump — recovery restores state, it does not advance it.

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
            # Highest wal_seq declared by a skipped-but-parseable newer
            # snapshot: evidence of how far the acknowledged history
            # reached even when that snapshot cannot be restored.
            skipped_wal_floor = 0
            for snapshot_id in reversed(_snapshot_ids(directory, io)):
                path = os.path.join(directory, _snapshot_filename(snapshot_id))
                try:
                    candidate = _load_document(path, io)
                except SnapshotError as exc:
                    skipped_snapshots.append(
                        {"snapshot_id": snapshot_id, "error": str(exc)}
                    )
                    continue
                try:
                    engine = restore_engine(candidate, optimizer, transitions)
                except SnapshotError as exc:
                    skipped_snapshots.append(
                        {"snapshot_id": snapshot_id, "error": str(exc)}
                    )
                    raw_seq = candidate.get("wal_seq", 0)
                    if isinstance(raw_seq, int):
                        skipped_wal_floor = max(skipped_wal_floor, raw_seq)
                    continue
                document = candidate
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
                engine._replay(record)
                replayed += 1
            report = {
                "snapshot_id": document.get("snapshot_id") if document else None,
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
                "from the snapshots and WAL: " + "; ".join(problems)
            )
