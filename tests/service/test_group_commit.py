"""Group commit: the WAL's fsync runs outside the engine's locks.

An acknowledged write appends its record inside the critical section that
orders its effect and waits for the record's fsync only after leaving it.
So the single writer analyzes a statement while its submitter's fsync
runs, concurrent submitters share fsyncs, a checkpoint and a crash see
only a durable prefix of the log, and a failed fsync stops every later
acknowledgement. Every test runs over a :class:`faults.FaultyIO`: a crash
keeps exactly what fsyncs pinned.
"""

from __future__ import annotations

import errno
import threading
import time

import pytest

import repro.service.wal as wal_module
from faults import FaultyIO, SimulatedCrash
from test_engine_concurrency import make_engine, narrow_sql, record_analysis_order
from repro.db import StatsTransitionCosts
from repro.optimizer import WhatIfOptimizer
from repro.service import TuningEngine
from repro.service.wal import (
    Durability,
    WalError,
    WriteAheadLog,
    read_wal,
    scan_wal,
)
from repro.workload import generate_workload, scaled_phases

DIR = "/dur"
WAL = f"{DIR}/wal.log"
#: make_engine's defaults, for engines recovery builds from the log alone.
OPTIONS = dict(batch_size=4, idx_cnt=8, state_cnt=64)
#: Seconds a test waits for another thread before it gives up.
TIMEOUT = 10.0
#: Seconds to wait for progress that a blocked fsync must not prevent.
PROGRESS = 5.0


class _Call(threading.Thread):
    """Runs ``fn(*args)`` on its own thread; ``error`` holds what it raised."""

    def __init__(self, fn, *args) -> None:
        super().__init__(daemon=True)
        self._fn = fn
        self._args = args
        self.error = None
        self.start()

    def run(self) -> None:
        try:
            self._fn(*self._args)
        except Exception as exc:  # handed to the test thread
            self.error = exc


def _wait_until(predicate, timeout: float = PROGRESS) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


def _durable_engine(stats, io):
    engine = make_engine(stats)
    durability = Durability(DIR, io=io)
    durability.attach(engine)
    return engine, durability


def _recover(stats, io):
    return TuningEngine.recover(
        DIR,
        WhatIfOptimizer(stats),
        StatsTransitionCosts(stats),
        io=io,
        engine_options=OPTIONS,
    )


def _durable_wal(io, fsync_interval_ms: float = 0.0) -> WriteAheadLog:
    io.makedirs(DIR)
    wal = WriteAheadLog(WAL, fsync_interval_ms=fsync_interval_ms, io=io)
    io.fsync_dir(DIR)  # pin the file's directory entry
    return wal


def _durable_seqs(io):
    return [record.seq for record in scan_wal(io.durable_bytes(WAL)).records]


class TestFsyncOutsideTheLocks:
    def test_writer_analyzes_while_the_submit_fsync_is_blocked(self, toy_stats):
        io = FaultyIO()
        engine, durability = _durable_engine(toy_stats, io)
        analyzed = record_analysis_order(engine)
        engine.start()
        gate = io.block_fsync()
        try:
            submit = _Call(engine.submit, "client", narrow_sql(toy_stats))
            assert gate.entered.wait(TIMEOUT)
            seen = _wait_until(lambda: len(analyzed) == 1)
            acknowledged_first = not submit.is_alive()
        finally:
            gate.release.set()
        submit.join(TIMEOUT)
        engine.stop()
        durability.close()
        assert seen, "the writer waited for the submitter's fsync"
        assert not acknowledged_first
        assert submit.error is None
        assert engine.statements_processed == 1

    def test_concurrent_submitters_share_fsyncs(self, toy_stats):
        io = FaultyIO()
        engine, durability = _durable_engine(toy_stats, io)
        fsyncs = io.op_counts.get("fsync", 0)
        gate = io.block_fsync()
        calls = []
        try:
            calls.append(_Call(engine.submit, "client-0", narrow_sql(toy_stats)))
            assert gate.entered.wait(TIMEOUT)
            for k in range(1, 4):
                calls.append(
                    _Call(
                        engine.submit,
                        f"client-{k}",
                        narrow_sql(toy_stats, offset=0.1 * k),
                    )
                )
            # Each submit enqueues right after its append, before its fsync.
            queued = _wait_until(lambda: engine.queue_depth == 4)
        finally:
            gate.release.set()
        for call in calls:
            call.join(TIMEOUT)
        assert queued, "submitters waited for another submitter's fsync"
        assert [call.error for call in calls] == [None] * 4
        # The blocked fsync covers the first record; one more covers the
        # three records appended while it was blocked.
        assert io.op_counts["fsync"] - fsyncs <= 2
        assert _durable_seqs(io) == [1, 2, 3, 4]
        assert engine.pump() == 4
        durability.close()

    def test_checkpoint_publishes_once_the_blocked_fsync_ends(self, toy_stats):
        io = FaultyIO()
        engine, durability = _durable_engine(toy_stats, io)
        for offset in (0.0, 0.1):
            engine.submit("client", narrow_sql(toy_stats, offset=offset))
        engine.pump()
        gate = io.block_fsync()
        try:
            submit = _Call(
                engine.submit, "client", narrow_sql(toy_stats, offset=0.2)
            )
            assert gate.entered.wait(TIMEOUT)
            checkpoint = _Call(durability.checkpoint)
            # The checkpoint drains the queued statement while the submit's
            # fsync is blocked...
            drained = _wait_until(lambda: engine.statements_processed == 3)
            # ...and publishes nothing until that fsync covers its record.
            checkpoint.join(0.05)
            publish_waited = (
                checkpoint.is_alive() and io.op_counts.get("replace", 0) == 0
            )
        finally:
            gate.release.set()
        submit.join(TIMEOUT)
        checkpoint.join(TIMEOUT)
        assert drained, "the checkpoint waited for the submitter's fsync to drain"
        assert publish_waited, "the checkpoint published an unsynced record"
        assert submit.error is None and checkpoint.error is None
        assert io.op_counts["replace"] == 2  # the snapshot, then the rotation
        io.crash()
        recovered, report = _recover(toy_stats, io)
        recovered.pump()
        assert report["snapshot_id"] == 1
        assert recovered.statements_processed == engine.statements_processed == 3
        assert recovered.total_work == engine.total_work
        assert recovered.tuner.recommend() == engine.tuner.recommend()

    def test_a_failed_fsync_aborts_a_racing_checkpoint(self, toy_stats):
        io = FaultyIO()
        engine, durability = _durable_engine(toy_stats, io)
        statements = [narrow_sql(toy_stats, offset=0.1 * k) for k in range(3)]
        for sql in statements[:2]:
            engine.submit("client", sql)
        engine.pump()
        gate = io.block_fsync()
        try:
            submit = _Call(engine.submit, "client", statements[2])
            assert gate.entered.wait(TIMEOUT)
            checkpoint = _Call(durability.checkpoint)
            drained = _wait_until(lambda: engine.statements_processed == 3)
            # Let the checkpoint reach its wait for the fsync, then fail it.
            checkpoint.join(0.05)
            gate.error = OSError(errno.EIO, "injected fsync failure")
        finally:
            gate.release.set()
        submit.join(TIMEOUT)
        checkpoint.join(TIMEOUT)
        assert drained, "the checkpoint waited for the submitter's fsync to drain"
        assert isinstance(submit.error, OSError)
        assert isinstance(checkpoint.error, WalError)
        # A published snapshot would hold the failed submit's statement.
        assert io.op_counts.get("replace", 0) == 0
        durability.close()
        io.crash()
        reference = make_engine(toy_stats)
        for sql in statements[:2]:
            reference.submit("client", sql)
        reference.pump()
        recovered, report = _recover(toy_stats, io)
        recovered.pump()
        assert report["snapshot_id"] is None
        assert recovered.statements_processed == 2
        assert recovered.total_work == reference.total_work
        assert recovered.tuner.recommend() == reference.tuner.recommend()

    def test_crash_at_the_fsync_of_an_analyzed_statement(self, toy_stats):
        io = FaultyIO()
        engine, durability = _durable_engine(toy_stats, io)
        analyzed = record_analysis_order(engine)
        statements = [narrow_sql(toy_stats, offset=0.1 * k) for k in range(4)]
        engine.start()
        gate = None
        try:
            for sql in statements[:3]:
                engine.submit("client", sql)
            gate = io.block_fsync()
            io.schedule_crash(op="fsync", phase="before")
            submit = _Call(engine.submit, "client", statements[3])
            assert gate.entered.wait(TIMEOUT)
            seen = _wait_until(lambda: len(analyzed) == 4)
            gate.release.set()
            submit.join(TIMEOUT)
        finally:
            if gate is not None:
                gate.release.set()
            engine.stop(drain=False)
        assert seen, "the writer waited for the submitter's fsync"
        assert isinstance(submit.error, SimulatedCrash)
        # The live engine analyzed the statement whose submit then failed;
        # recovery holds only the acknowledged prefix.
        assert engine.statements_processed == 4
        reference = make_engine(toy_stats)
        for sql in statements[:3]:
            reference.submit("client", sql)
        reference.pump()
        recovered, _ = _recover(toy_stats, io)
        recovered.pump()
        assert recovered.statements_processed == 3
        assert recovered.total_work == reference.total_work
        assert recovered.tuner.recommend() == reference.tuner.recommend()

    def test_drain_records_ride_the_next_acknowledged_fsync(self, toy_stats):
        io = FaultyIO()
        engine, durability = _durable_engine(toy_stats, io)
        engine.submit("fg", narrow_sql(toy_stats), priority="interactive")
        engine.submit("a", narrow_sql(toy_stats, offset=0.1))
        for offset in (0.2, 0.3, 0.4):
            engine.submit(
                "flood", narrow_sql(toy_stats, offset=offset),
                priority="background",
            )
        fsyncs = io.op_counts["fsync"]
        engine.pump(3)  # fg and a in one batch, then one background statement
        assert io.op_counts["fsync"] == fsyncs
        written = [record.kind for record in read_wal(WAL, io=io).records]
        assert written.count("drain") == 2
        assert len(_durable_seqs(io)) == len(written) - 2
        voted = sorted(engine.tuner.candidates)[:1]
        assert voted
        engine.vote("dba", frozenset(voted), frozenset())
        assert io.op_counts["fsync"] == fsyncs + 1
        assert len(_durable_seqs(io)) == len(written) + 1
        io.crash()
        recovered, report = _recover(toy_stats, io)
        assert report["wal_replayed"] == len(written) + 1
        assert recovered.statements_processed == engine.statements_processed
        assert recovered.queue_depths == engine.queue_depths
        assert recovered.tuner.export_state() == engine.tuner.export_state()
        assert recovered.total_work == engine.total_work
        assert recovered.realized_total_work == engine.realized_total_work


class TestStickyFailure:
    def test_nothing_is_acknowledged_after_a_failed_fsync(
        self, bench_catalog, bench_stats
    ):
        catalog, _ = bench_catalog
        statements = generate_workload(
            catalog, bench_stats, scaled_phases(2), seed=7
        ).statements[:3]
        io = FaultyIO()
        engine = TuningEngine.for_stats(bench_stats)
        durability = Durability(DIR, io=io)
        durability.attach(engine)
        engine.submit("client", statements[0])
        engine.pump()
        io.fail_fsync(OSError(errno.EIO, "injected fsync failure"))
        with pytest.raises(OSError):
            engine.submit("client", statements[1])
        with pytest.raises(WalError, match="fsync failed"):
            engine.submit("client", statements[2])
        engine.pump()
        durability.close()
        # The failed submit's statement was queued before its fsync, so the
        # live engine analyzed it; it is not durable.
        assert engine.statements_processed == 2
        io.crash()
        recovered, _ = TuningEngine.recover(
            DIR, WhatIfOptimizer(bench_stats), StatsTransitionCosts(bench_stats),
            io=io,
        )
        recovered.pump()
        reference = TuningEngine.for_stats(bench_stats)
        reference.submit("client", statements[0])
        reference.pump()
        assert recovered.statements_processed == 1
        assert recovered.total_work == reference.total_work
        assert recovered.tuner.recommend() == reference.tuner.recommend()

    @pytest.mark.parametrize("drive", ["pump", "start"])
    def test_the_writer_drains_without_drain_records_after_a_failed_fsync(
        self, toy_stats, drive
    ):
        io = FaultyIO()
        engine, durability = _durable_engine(toy_stats, io)
        statements = [narrow_sql(toy_stats, offset=0.1 * k) for k in range(3)]
        engine.submit("fg", statements[0], priority="interactive")
        engine.submit("client", statements[1])
        io.fail_fsync(OSError(errno.EIO, "injected fsync failure"))
        with pytest.raises(OSError):
            engine.submit("client", statements[2])
        # A drain record can no longer be logged; the batch is analyzed
        # anyway instead of leaving the live engine with the log's error.
        if drive == "pump":
            assert engine.pump() == 3
        else:
            engine.start()
            drained = _wait_until(lambda: engine.statements_processed == 3)
            engine.stop()
            assert drained, "the drain thread stopped at the failed log"
        assert engine.statements_processed == 3
        assert engine.queue_depth == 0
        durability.close()
        io.crash()
        reference = make_engine(toy_stats)
        reference.submit("fg", statements[0], priority="interactive")
        reference.submit("client", statements[1])
        reference.pump()
        recovered, _ = _recover(toy_stats, io)
        recovered.pump()
        assert recovered.statements_processed == 2
        assert recovered.total_work == reference.total_work
        assert recovered.tuner.recommend() == reference.tuner.recommend()

    def test_every_wal_call_after_a_failed_fsync_raises(self):
        io = FaultyIO()
        wal = _durable_wal(io)
        wal.sync_to(wal.append("submit", {"n": 1}))
        io.fail_fsync(OSError(errno.EIO, "injected fsync failure"))
        seq = wal.append("submit", {"n": 2})
        with pytest.raises(OSError):
            wal.sync_to(seq)
        calls = (
            lambda: wal.append("submit", {"n": 3}),
            lambda: wal.sync_to(seq),
            lambda: wal.sync_to(1),
            wal.sync,
            wal.checkpoint_mark,
            wal.reset,
        )
        for call in calls:
            with pytest.raises(WalError, match="fsync failed"):
                call()
        fsyncs = io.op_counts["fsync"]
        wal.close()  # releases the handle without another fsync
        wal.close()
        assert io.op_counts["fsync"] == fsyncs
        io.crash()
        assert [r.seq for r in read_wal(WAL, io=io).records] == [1]


@pytest.fixture
def clock(monkeypatch):
    """A hand-driven stand-in for the WAL's monotonic clock (seconds)."""

    class Clock:
        now = 100.0

        def __call__(self) -> float:
            return self.now

    fake = Clock()
    monkeypatch.setattr(wal_module, "_monotonic", fake)
    return fake


class TestLossyInterval:
    """``fsync_interval_ms > 0``: a record becomes durable at the first
    ``sync_to`` after the interval, at ``sync()`` or at ``close()``."""

    def _two_records(self, io, clock):
        wal = _durable_wal(io, fsync_interval_ms=5)
        wal.sync_to(wal.append("submit", {"n": 1}))  # seeds the pacing clock
        clock.now += 0.001
        wal.sync_to(wal.append("submit", {"n": 2}))  # 1 ms later: skipped
        return wal

    def test_an_idle_log_holds_records_unsynced(self, clock):
        io = FaultyIO()
        self._two_records(io, clock)
        clock.now += 0.2  # 200 ms of idleness fsync nothing
        io.crash()
        assert [r.seq for r in read_wal(WAL, io=io).records] == [1]

    def test_the_first_sync_after_the_interval_covers_the_backlog(self, clock):
        io = FaultyIO()
        wal = self._two_records(io, clock)
        clock.now += 0.2
        wal.sync_to(wal.append("submit", {"n": 3}))
        io.crash()
        assert [r.seq for r in read_wal(WAL, io=io).records] == [1, 2, 3]

    @pytest.mark.parametrize("flush", ["sync", "close"])
    def test_sync_and_close_force_the_backlog(self, clock, flush):
        io = FaultyIO()
        wal = self._two_records(io, clock)
        getattr(wal, flush)()
        io.crash()
        assert [r.seq for r in read_wal(WAL, io=io).records] == [1, 2]


class TestHandleSwaps:
    def test_reset_waits_for_the_in_flight_fsync(self):
        io = FaultyIO()
        wal = _durable_wal(io)
        gate = io.block_fsync()
        try:
            first = _Call(wal.sync_to, wal.append("submit", {"n": 1}))
            assert gate.entered.wait(TIMEOUT)
            wal.checkpoint_mark()
            second = _Call(wal.sync_to, wal.append("submit", {"n": 2}))
            rotation = _Call(wal.reset)
            rotation.join(0.05)
            reset_waited = (
                rotation.is_alive() and io.op_counts.get("replace", 0) == 0
            )
        finally:
            gate.release.set()
        for call in (first, second, rotation):
            call.join(TIMEOUT)
        assert reset_waited, "reset() did not wait for the in-flight fsync"
        assert [first.error, second.error, rotation.error] == [None] * 3
        io.crash()
        survivors = read_wal(WAL, io=io).records
        assert [(r.kind, r.seq) for r in survivors] == [("floor", 1), ("submit", 2)]

    def test_sync_to_racing_close_returns_once_close_covers_it(self):
        io = FaultyIO()
        wal = _durable_wal(io)
        gate = io.block_fsync()
        try:
            first = _Call(wal.sync_to, wal.append("submit", {"n": 1}))
            assert gate.entered.wait(TIMEOUT)
            second = _Call(wal.sync_to, wal.append("submit", {"n": 2}))
            closer = _Call(wal.close)
            closer.join(0.05)
            close_waited = closer.is_alive()
        finally:
            gate.release.set()
        for call in (first, second, closer):
            call.join(TIMEOUT)
        assert close_waited, "close() did not wait for the in-flight fsync"
        assert [first.error, second.error, closer.error] == [None] * 3
        io.crash()
        assert [r.seq for r in read_wal(WAL, io=io).records] == [1, 2]
