"""WAL edge cases: framing, torn tails, corruption, sequence discipline.

These are the unit-level durability contracts (ISSUE 9 satellite): an
empty log is valid, a torn final record is the tolerated crash artifact,
mid-file corruption is refused *with the byte offset*, sequence numbers
survive both checkpoint truncation and process restarts (the idempotence
device), and group commit loses at most the unsynced suffix. The
integration-level kill-point properties live in
``test_crash_recovery.py``.
"""

from __future__ import annotations

import json
import struct
import zlib

import pytest

from faults import FaultyIO, SimulatedCrash
from repro.ioutil import atomic_write_json
from repro.service.snapshot import SNAPSHOT_VERSION
from repro.service.wal import (
    CorruptRecord,
    Durability,
    WalError,
    WriteAheadLog,
    encode_record,
    read_wal,
    scan_wal,
)

_HEADER = struct.Struct("<III")
_LENGTH = struct.Struct("<I")


def _frame(body: bytes) -> bytes:
    """Hand-frame a record body with the on-disk header layout."""
    length = _LENGTH.pack(len(body))
    return (
        _HEADER.pack(len(body), zlib.crc32(length), zlib.crc32(body)) + body
    )


class _StubEngine:
    """Just enough engine for Durability.attach in WAL-only tests."""

    def __init__(self) -> None:
        self.wal = None

    def attach_wal(self, wal) -> None:
        self.wal = wal


def _records(*payloads, start_seq=1):
    return b"".join(
        encode_record(start_seq + i, "submit", payload)
        for i, payload in enumerate(payloads)
    )


# ---------------------------------------------------------------------------
# scan_wal framing
# ---------------------------------------------------------------------------

class TestScan:
    def test_empty_log_is_valid(self):
        scan = scan_wal(b"")
        assert scan.records == ()
        assert scan.valid_length == 0
        assert not scan.torn

    def test_round_trip(self):
        data = _records({"a": 1}, {"b": 2}, {"c": 3})
        scan = scan_wal(data)
        assert [r.seq for r in scan.records] == [1, 2, 3]
        assert [r.payload for r in scan.records] == [{"a": 1}, {"b": 2}, {"c": 3}]
        assert scan.valid_length == len(data)
        assert not scan.torn

    @pytest.mark.parametrize("cut", [1, 4, 7, -1])
    def test_torn_final_record_tolerated(self, cut):
        """Any incomplete tail — inside the header or inside the body —
        yields the clean two-record prefix and torn=True."""
        clean = _records({"a": 1}, {"b": 2})
        tail = encode_record(3, "submit", {"c": 3})
        data = clean + (tail[:cut] if cut > 0 else tail[:-1])
        scan = scan_wal(data)
        assert [r.seq for r in scan.records] == [1, 2]
        assert scan.valid_length == len(clean)
        assert scan.torn

    def test_corrupt_crc_mid_file_refused_with_offset(self):
        first = encode_record(1, "submit", {"a": 1})
        data = first + _records({"b": 2}, {"c": 3}, start_seq=2)
        # Flip one byte inside record 2's body.
        corrupt = bytearray(data)
        corrupt[len(first) + _HEADER.size] ^= 0xFF
        with pytest.raises(CorruptRecord) as info:
            scan_wal(bytes(corrupt))
        assert info.value.offset == len(first)
        assert f"byte offset {len(first)}" in str(info.value)

    def test_corrupt_length_field_refused_not_healed(self):
        """A damaged length field mid-file must be refused as corruption.

        Without a header checksum, a corrupted length makes the scanner
        believe the remaining bytes form one giant torn record — and
        attach/recovery would then 'heal' every subsequent valid record
        away, silently losing acknowledged data.
        """
        first = encode_record(1, "submit", {"a": 1})
        data = first + _records({"b": 2}, {"c": 3}, start_seq=2)
        corrupt = bytearray(data)
        # Blow up record 2's length field to dwarf the remaining bytes.
        corrupt[len(first) : len(first) + _LENGTH.size] = _LENGTH.pack(
            2**30
        )
        with pytest.raises(CorruptRecord) as info:
            scan_wal(bytes(corrupt))
        assert info.value.offset == len(first)
        assert "header" in str(info.value)

    def test_single_bit_flip_in_length_refused(self):
        first = encode_record(1, "submit", {"a": 1})
        data = bytearray(first + _records({"b": 2}, {"c": 3}, start_seq=2))
        data[len(first)] ^= 0x01
        with pytest.raises(CorruptRecord) as info:
            scan_wal(bytes(data))
        assert info.value.offset == len(first)

    def test_valid_crc_but_bad_json_refused(self):
        framed = _frame(b"not-json")
        with pytest.raises(CorruptRecord) as info:
            scan_wal(_records({"a": 1}) + framed)
        assert info.value.offset == len(_records({"a": 1}))

    def test_record_missing_seq_refused(self):
        framed = _frame(json.dumps({"kind": "submit"}).encode())
        with pytest.raises(CorruptRecord):
            scan_wal(framed)

    def test_corrupt_record_is_a_wal_error(self):
        assert issubclass(CorruptRecord, WalError)


# ---------------------------------------------------------------------------
# WriteAheadLog on the real filesystem
# ---------------------------------------------------------------------------

class TestWriteAheadLog:
    def test_append_and_read_back(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        assert wal.append("submit", {"sql": "SELECT 1"}) == 1
        assert wal.append("vote", {"position": 1}) == 2
        wal.close()
        scan = read_wal(tmp_path / "wal.log")
        assert [(r.seq, r.kind) for r in scan.records] == [
            (1, "submit"),
            (2, "vote"),
        ]
        assert not scan.torn

    def test_reset_rotates_but_seq_continues(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append("submit", {"n": 1})
        wal.append("submit", {"n": 2})
        wal.reset()
        assert wal.append("submit", {"n": 3}) == 3
        wal.close()
        scan = read_wal(tmp_path / "wal.log")
        # The rotated log opens with a floor record naming the covered
        # prefix, then continues with post-reset records.
        assert [(r.seq, r.kind) for r in scan.records] == [
            (2, "floor"),
            (3, "submit"),
        ]

    def test_reset_preserves_records_appended_after_the_mark(self, tmp_path):
        """The checkpoint race: a record acknowledged between the
        snapshot's state capture (the mark) and the rotation must survive
        — it is covered by neither the snapshot nor, with a naive
        truncate-everything reset, the log."""
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append("submit", {"n": 1})
        wal.append("submit", {"n": 2})
        assert wal.checkpoint_mark() == 2
        wal.append("submit", {"n": 3})  # lands after the mark
        wal.reset(note={"snapshot_id": 7})
        wal.close()
        scan = read_wal(tmp_path / "wal.log")
        assert [(r.seq, r.kind) for r in scan.records] == [
            (2, "floor"),
            (3, "submit"),
        ]
        assert scan.records[0].payload == {"snapshot_id": 7}
        assert scan.records[1].payload == {"n": 3}

    def test_reopen_after_rotation_continues_seq(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append("submit", {"n": 1})
        wal.checkpoint_mark()
        wal.reset()
        wal.close()
        scan = read_wal(tmp_path / "wal.log")
        reopened = WriteAheadLog(
            tmp_path / "wal.log", next_seq=scan.records[-1].seq + 1
        )
        assert reopened.append("submit", {"n": 2}) == 2
        reopened.close()

    def test_reopen_continues_after_last_record(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append("submit", {"n": 1})
        wal.close()
        scan = read_wal(tmp_path / "wal.log")
        reopened = WriteAheadLog(
            tmp_path / "wal.log", next_seq=scan.records[-1].seq + 1
        )
        assert reopened.append("submit", {"n": 2}) == 2
        reopened.close()
        scan = read_wal(tmp_path / "wal.log")
        assert [r.seq for r in scan.records] == [1, 2]

    def test_truncate_to_cuts_torn_tail(self, tmp_path):
        path = tmp_path / "wal.log"
        clean = _records({"n": 1})
        path.write_bytes(clean + encode_record(2, "submit", {"n": 2})[:-3])
        scan = read_wal(path)
        assert scan.torn
        wal = WriteAheadLog(path, next_seq=2, truncate_to=scan.valid_length)
        wal.append("submit", {"n": 2})
        wal.close()
        healed = read_wal(path)
        assert not healed.torn
        assert [r.seq for r in healed.records] == [1, 2]

    def test_closed_wal_refuses_appends(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.close()
        with pytest.raises(WalError):
            wal.append("submit", {})

    def test_next_seq_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(tmp_path / "wal.log", next_seq=0)


# ---------------------------------------------------------------------------
# Group commit + crash semantics (FaultyIO)
# ---------------------------------------------------------------------------

class TestGroupCommit:
    def _durable_wal(self, io, *, fsync_interval_ms):
        io.makedirs("/w")
        wal = WriteAheadLog(
            "/w/wal.log", fsync_interval_ms=fsync_interval_ms, io=io
        )
        io.fsync_dir("/w")  # pin the file's directory entry
        return wal

    def test_interval_zero_makes_every_append_durable(self):
        io = FaultyIO()
        wal = self._durable_wal(io, fsync_interval_ms=0)
        for n in range(3):
            wal.sync_to(wal.append("submit", {"n": n}))
        io.crash()
        assert [r.seq for r in read_wal("/w/wal.log", io=io).records] == [1, 2, 3]

    def test_group_commit_loses_only_the_unsynced_suffix(self):
        io = FaultyIO()
        # Effectively-infinite interval: only the first sync (which seeds
        # the pacing clock) fsyncs; the rest ride the page cache.
        wal = self._durable_wal(io, fsync_interval_ms=1e9)
        for n in range(5):
            wal.sync_to(wal.append("submit", {"n": n}))
        io.crash()
        survivors = read_wal("/w/wal.log", io=io).records
        assert [r.seq for r in survivors] == [1]

    def test_sync_forces_the_suffix_durable(self):
        io = FaultyIO()
        wal = self._durable_wal(io, fsync_interval_ms=1e9)
        for n in range(5):
            wal.append("submit", {"n": n})
        wal.sync()
        io.crash()
        assert len(read_wal("/w/wal.log", io=io).records) == 5

    def test_dropped_fsyncs_lose_everything_unacknowledged(self):
        io = FaultyIO()
        wal = self._durable_wal(io, fsync_interval_ms=0)
        io.drop_fsyncs = True  # a lying disk from here on
        wal.sync_to(wal.append("submit", {"n": 1}))
        io.crash()
        assert read_wal("/w/wal.log", io=io).records == ()

    def test_crash_before_fsync_loses_the_record(self):
        io = FaultyIO()
        wal = self._durable_wal(io, fsync_interval_ms=0)
        wal.sync_to(wal.append("submit", {"n": 1}))
        io.schedule_crash(op="fsync", phase="before")
        with pytest.raises(SimulatedCrash):
            wal.sync_to(wal.append("submit", {"n": 2}))
        assert [r.seq for r in read_wal("/w/wal.log", io=io).records] == [1]

    def test_crash_mid_write_leaves_a_tolerated_torn_tail(self):
        io = FaultyIO()
        wal = self._durable_wal(io, fsync_interval_ms=0)
        wal.append("submit", {"n": 1})
        io.schedule_crash(op="write", phase="mid")
        with pytest.raises(SimulatedCrash):
            wal.append("submit", {"n": 2})
        scan = read_wal("/w/wal.log", io=io)
        assert scan.torn
        assert [r.seq for r in scan.records] == [1]


# ---------------------------------------------------------------------------
# atomic_write_json crash atomicity (FaultyIO)
# ---------------------------------------------------------------------------

class TestAtomicWrite:
    def _publish(self, io, document):
        atomic_write_json("/d/doc.json", document, io=io)

    def test_reader_sees_old_or_new_never_torn(self):
        io = FaultyIO()
        io.makedirs("/d")
        self._publish(io, {"generation": 1})
        for phase, op in [
            ("before", "write"),
            ("before", "fsync"),
            ("before", "replace"),
            ("after", "replace"),  # renamed but the rename never made disk
            ("before", "fsync_dir"),
        ]:
            io.schedule_crash(op=op, phase=phase)
            with pytest.raises(SimulatedCrash):
                self._publish(io, {"generation": 2})
            assert json.loads(io.read_bytes("/d/doc.json")) == {"generation": 1}

    def test_publish_durable_after_dir_fsync(self):
        io = FaultyIO()
        io.makedirs("/d")
        self._publish(io, {"generation": 1})
        self._publish(io, {"generation": 2})
        io.crash()
        assert json.loads(io.read_bytes("/d/doc.json")) == {"generation": 2}
        assert "/d/doc.json.tmp" not in io.durable_names()


# ---------------------------------------------------------------------------
# Durability sequence floor across restarts
# ---------------------------------------------------------------------------

class TestSequenceFloor:
    def test_seq_floor_clears_newest_snapshot_after_restart(self):
        """A checkpoint truncates the log; after a *restart* the fresh scan
        sees an empty file. Sequencing must still resume above the
        snapshot's wal_seq, or recovery would skip post-restart records
        as already covered."""
        io = FaultyIO()
        durability = Durability("/dur", io=io, fsync_interval_ms=0)
        wal = durability.attach(_StubEngine())
        for n in range(3):
            wal.append("submit", {"n": n})
        # Stand in for Durability.checkpoint: publish a snapshot covering
        # seq <= 3, then rotate — without needing a real engine.
        atomic_write_json(
            durability.snapshot_path(1),
            {"version": SNAPSHOT_VERSION, "snapshot_id": 1, "wal_seq": 3},
            io=io,
        )
        wal.reset()
        durability.close()

        restarted = Durability("/dur", io=io, fsync_interval_ms=0)
        wal = restarted.attach(_StubEngine())
        assert wal.append("submit", {"n": 3}) == 4
        restarted.close()

    def test_attach_heals_torn_tail_and_continues_seq(self):
        io = FaultyIO()
        io.makedirs("/dur")
        data = _records({"n": 1}, {"n": 2}) + encode_record(3, "submit", {})[:-2]
        handle = io.open_write("/dur/wal.log")
        io.write(handle, data)
        io.fsync(handle)
        io.close(handle)
        io.fsync_dir("/dur")

        durability = Durability("/dur", io=io, fsync_interval_ms=0)
        wal = durability.attach(_StubEngine())
        assert wal.append("submit", {"n": 3}) == 3
        scan = read_wal("/dur/wal.log", io=io)
        assert not scan.torn
        assert [r.seq for r in scan.records] == [1, 2, 3]
        durability.close()

    def test_double_attach_refused(self):
        io = FaultyIO()
        durability = Durability("/dur", io=io)
        durability.attach(_StubEngine())
        with pytest.raises(WalError):
            durability.attach(_StubEngine())
        durability.close()
