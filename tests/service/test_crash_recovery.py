"""Crash/fault-injection harness: kill, recover, and demand step-identity.

The contract (ISSUE 9 acceptance): crash the durable engine at any
barrier — before an fsync, mid-record, after the snapshot rename but
before the WAL truncation, mid-checkpoint-rename — then recover, finish
the workload, and the recommendations, totWork, work functions, and
materialized set must be identical to the uninterrupted run. With
``fsync_interval_ms == 0`` every acknowledged operation is durable
before control returns, so the recovered engine must sit at *exactly*
the acknowledged prefix of the event sequence: nothing acknowledged is
ever lost, nothing unacknowledged is half-applied.

All filesystem state lives in a :class:`faults.FaultyIO`; a crash
reverts it to exactly what fsyncs pinned, which is what a real power
loss could leave behind.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from faults import FaultyIO, SimulatedCrash
from test_checkpoint_property import SALES, TOL, _toy_statements
from repro.db import Index, StatsTransitionCosts
from repro.ioutil import atomic_write_json
from repro.optimizer import WhatIfOptimizer
from repro.service import TuningEngine
from repro.service.snapshot import BrokenChain
from repro.service.wal import Durability, read_wal

OPTIONS = dict(idx_cnt=6, state_cnt=32, hist_size=10)
DIR = "/dur"


def _fresh_engine(stats) -> TuningEngine:
    return TuningEngine(
        WhatIfOptimizer(stats), StatsTransitionCosts(stats), **OPTIONS
    )


def _events(stats):
    """The toy workload as an explicit event sequence: statements plus a
    DBA vote and an explicit materialization, so WAL replay covers every
    record kind at a pinned statement position."""
    statements = _toy_statements(stats)
    votes = (
        frozenset({Index(SALES, ("amount",))}),
        frozenset({Index(SALES, ("product_id",))}),
    )
    events = []
    for i, statement in enumerate(statements, start=1):
        events.append(("stmt", statement))
        if i == 3:
            events.append(("vote", votes[0], votes[1]))
        if i == 6:
            events.append(("create", Index(SALES, ("sale_date",))))
    return events


def _apply_event(engine: TuningEngine, event) -> None:
    kind = event[0]
    if kind == "stmt":
        engine.submit("client", event[1])
        engine.pump()
    elif kind == "vote":
        engine.vote("client", event[1], event[2])
    elif kind == "create":
        engine.create_index("client", event[1])
    else:  # pragma: no cover - defensive
        raise AssertionError(f"unknown event {kind!r}")


def _signature(engine: TuningEngine):
    """Everything that must survive a crash, exactly."""
    return {
        "statements": engine.statements_processed,
        "total_work": engine.total_work,
        "recommendation": engine.tuner.recommend(),
        "materialized": engine.materialized,
        "work": [
            (instance.indices, instance.work_function())
            for instance in engine.tuner._plus.instances
        ],
    }


def _assert_signatures_equal(ours, theirs, label):
    assert ours["statements"] == theirs["statements"], label
    assert ours["recommendation"] == theirs["recommendation"], label
    assert ours["materialized"] == theirs["materialized"], label
    assert ours["total_work"] == pytest.approx(
        theirs["total_work"], abs=TOL
    ), label
    assert [i for i, _ in ours["work"]] == [i for i, _ in theirs["work"]], label
    for (_, mine), (_, other) in zip(ours["work"], theirs["work"]):
        assert set(mine) == set(other), label
        for config, value in other.items():
            assert mine[config] == pytest.approx(value, abs=TOL), (
                f"{label}: work function diverged at {config}"
            )


@pytest.fixture(scope="module")
def reference(toy_stats):
    """The uninterrupted run: state signature after every event prefix."""
    events = _events(toy_stats)
    engine = _fresh_engine(toy_stats)
    signatures = [_signature(engine)]
    for event in events:
        _apply_event(engine, event)
        signatures.append(_signature(engine))
    return {"events": events, "signatures": signatures}


def _durable_run(stats, events, io, *, checkpoint_every=3):
    """Drive ``events`` against a WAL-attached engine, checkpointing every
    ``checkpoint_every`` statements. Returns the number of events that
    were *acknowledged* (their engine call returned) before the scheduled
    crash fired — or ``len(events)`` when no fault triggered."""
    engine = _fresh_engine(stats)
    durability = Durability(DIR, io=io, fsync_interval_ms=0)
    acked = 0
    try:
        durability.attach(engine)
        statements = 0
        for event in events:
            _apply_event(engine, event)
            acked += 1
            if event[0] == "stmt":
                statements += 1
                if statements % checkpoint_every == 0:
                    durability.checkpoint()
        durability.close()
    except SimulatedCrash:
        pass
    return acked


def _recover(stats, io):
    return TuningEngine.recover(
        DIR,
        WhatIfOptimizer(stats),
        StatsTransitionCosts(stats),
        io=io,
        engine_options=OPTIONS,
    )


def _recover_and_verify(stats, reference, io, acked, *, expect_extra=0):
    """Recover, check the engine sits at the acknowledged prefix (plus any
    known-durable-but-unacknowledged suffix), finish the workload, and
    demand the final state match the uninterrupted run exactly."""
    events = reference["events"]
    engine, report = _recover(stats, io)
    engine.pump()
    prefix = acked + expect_extra
    _assert_signatures_equal(
        _signature(engine),
        reference["signatures"][prefix],
        f"recovered state != reference prefix {prefix}",
    )
    for index, event in enumerate(events[prefix:], start=prefix):
        _apply_event(engine, event)
        _assert_signatures_equal(
            _signature(engine),
            reference["signatures"][index + 1],
            f"post-recovery event {index} diverged",
        )
    return engine, report


# ---------------------------------------------------------------------------
# Named barriers
# ---------------------------------------------------------------------------

class TestKillAtBarriers:
    def test_clean_run_is_step_identical(self, toy_stats, reference):
        io = FaultyIO()
        acked = _durable_run(toy_stats, reference["events"], io)
        assert acked == len(reference["events"])
        io.crash()  # even a clean shutdown must recover from durable state
        engine, report = _recover_and_verify(
            toy_stats, reference, io, acked
        )
        assert report["wal_torn_tail"] is False

    def test_crash_before_wal_fsync_loses_only_unacknowledged(
        self, toy_stats, reference
    ):
        io = FaultyIO()
        io.schedule_crash(op="fsync", at=6, phase="before")
        acked = _durable_run(toy_stats, reference["events"], io)
        assert acked < len(reference["events"])
        _recover_and_verify(toy_stats, reference, io, acked)

    def test_crash_mid_record_leaves_tolerated_torn_tail(
        self, toy_stats, reference
    ):
        io = FaultyIO()
        # Writes 1-3 are the first three statements' records, write 4 the
        # snapshot temp file, write 5 the rotation temp file; write 6 is
        # the vote's WAL record — tear that one.
        io.schedule_crash(op="write", at=6, phase="mid")
        acked = _durable_run(toy_stats, reference["events"], io)
        assert acked < len(reference["events"])
        engine, report = _recover_and_verify(toy_stats, reference, io, acked)
        assert report["wal_torn_tail"] is True

    def test_crash_after_fsync_before_ack_preserves_the_record(
        self, toy_stats, reference
    ):
        """The dual invariant: a record that *did* reach the platter is
        replayed even though the caller never saw the call return."""
        io = FaultyIO()
        io.schedule_crash(op="fsync", at=4, phase="after")
        acked = _durable_run(toy_stats, reference["events"], io)
        assert acked < len(reference["events"])
        _recover_and_verify(
            toy_stats, reference, io, acked, expect_extra=1
        )

    def test_crash_between_snapshot_publish_and_wal_truncate(
        self, toy_stats, reference
    ):
        """The snapshot is durable but the WAL still holds every record it
        covers: replay must skip them (sequence-number idempotence), not
        double-apply."""
        io = FaultyIO()
        # Checkpoint op order: snapshot write/fsync/replace/fsync_dir, then
        # the WAL rotation's own write/fsync/replace/fsync_dir. Replace #1
        # publishes the snapshot; replace #2 swaps in the rotated WAL.
        # Crash before replace #2 = snapshot durable, old WAL intact.
        io.schedule_crash(op="replace", at=2, phase="before")
        acked = _durable_run(toy_stats, reference["events"], io)
        assert acked < len(reference["events"])
        wal_records = len(read_wal(f"{DIR}/wal.log", io=io).records)
        assert wal_records > 0
        engine, report = _recover_and_verify(toy_stats, reference, io, acked)
        assert report["snapshot_id"] == 1
        assert report["wal_covered"] == wal_records
        assert report["wal_replayed"] == 0

    def test_crash_mid_checkpoint_rename(self, toy_stats, reference):
        """Power loss between the snapshot rename and the directory fsync:
        the new snapshot never happened; recovery replays the full WAL."""
        io = FaultyIO()
        io.schedule_crash(op="replace", at=1, phase="after")
        acked = _durable_run(toy_stats, reference["events"], io)
        assert acked < len(reference["events"])
        engine, report = _recover_and_verify(toy_stats, reference, io, acked)
        assert report["snapshot_id"] is None  # no snapshot survived
        assert report["wal_replayed"] > 0

    def test_crash_before_checkpoint_tmp_write(self, toy_stats, reference):
        io = FaultyIO()
        # The 7th write is inside the first checkpoint's tmp-file publish
        # (each of the first 3 statements and the vote writes one WAL
        # record = writes 1-4... schedule relative to checkpoint instead).
        io.schedule_crash(op="replace", at=1, phase="before")
        acked = _durable_run(toy_stats, reference["events"], io)
        assert acked < len(reference["events"])
        _recover_and_verify(toy_stats, reference, io, acked)

    def test_duplicate_replay_is_idempotent_across_double_crash(
        self, toy_stats, reference
    ):
        """Crash during WAL rotation, recover, crash again without any
        new checkpoint: covered records must be skipped both times."""
        io = FaultyIO()
        io.schedule_crash(op="replace", at=2, phase="before")
        acked = _durable_run(toy_stats, reference["events"], io)
        engine, first_report = _recover(toy_stats, io)
        assert first_report["wal_covered"] > 0
        io.crash()  # recovery itself wrote nothing, so this is a no-op
        _recover_and_verify(toy_stats, reference, io, acked)

    def test_recovery_leaves_queue_unpumped(self, toy_stats, reference):
        """Recovery restores state; it does not advance it."""
        io = FaultyIO()
        io.schedule_crash(op="fsync", at=9, phase="before")
        _durable_run(toy_stats, reference["events"], io)
        engine, report = _recover(toy_stats, io)
        assert report["queue_depth"] == engine.queue_depth
        if report["wal_replayed"] > 0:
            assert engine.queue_depth > 0


# ---------------------------------------------------------------------------
# Rotation races, poisoned records, chain gaps
# ---------------------------------------------------------------------------

class TestRotationAndChainSafety:
    def test_submit_racing_checkpoint_survives_rotation(
        self, toy_stats, reference
    ):
        """A submit acknowledged between the checkpoint's mark capture and
        the WAL rotation sits past the marked prefix; the rotation must
        carry its record into the fresh log, not destroy it."""
        io = FaultyIO()
        events = reference["events"]
        engine = _fresh_engine(toy_stats)
        durability = Durability(DIR, io=io, fsync_interval_ms=0)
        durability.attach(engine)
        for event in events[:2]:
            _apply_event(engine, event)
        racer = events[2][1]
        original = engine.checkpoint

        def checkpoint_then_race(*args, **kwargs):
            document = original(*args, **kwargs)
            # The mark was captured inside the call above; this submit is
            # acknowledged (written and fsynced) before the snapshot
            # publish and WAL rotation run.
            engine.submit("client", racer)
            return document

        engine.checkpoint = checkpoint_then_race
        durability.checkpoint()
        io.crash()
        recovered, report = _recover(toy_stats, io)
        assert report["wal_replayed"] == 1
        recovered.pump()
        _assert_signatures_equal(
            _signature(recovered),
            reference["signatures"][3],
            "submit acknowledged during checkpoint was lost by rotation",
        )

    def test_crash_mid_wal_rotation_rename(self, toy_stats, reference):
        """Power loss after the rotated log's rename but before the
        directory fsync: the old full log is the durable one, and its
        covered records replay as no-ops against the published snapshot."""
        io = FaultyIO()
        io.schedule_crash(op="replace", at=2, phase="after")
        acked = _durable_run(toy_stats, reference["events"], io)
        assert acked < len(reference["events"])
        engine, report = _recover_and_verify(toy_stats, reference, io, acked)
        assert report["snapshot_id"] == 1
        assert report["wal_covered"] > 0
        assert report["wal_replayed"] == 0

    def test_invalid_vote_is_rejected_before_it_is_logged(
        self, toy_stats, reference
    ):
        """An overlapping F+/F- vote must fail *before* its WAL record is
        written: a durable record that :meth:`WFIT.feedback` rejects would
        permanently poison every future recovery replay."""
        io = FaultyIO()
        engine = _fresh_engine(toy_stats)
        durability = Durability(DIR, io=io, fsync_interval_ms=0)
        durability.attach(engine)
        for event in reference["events"][:3]:
            _apply_event(engine, event)
        overlap = frozenset({Index(SALES, ("amount",))})
        with pytest.raises(ValueError):
            engine.vote("client", overlap, overlap)
        durability.close()
        kinds = [r.kind for r in read_wal(f"{DIR}/wal.log", io=io).records]
        assert "vote" not in kinds
        io.crash()
        recovered, report = _recover(toy_stats, io)
        assert report["wal_replayed"] == 3
        recovered.pump()
        _assert_signatures_equal(
            _signature(recovered),
            reference["signatures"][3],
            "rejected vote poisoned recovery",
        )

    def test_fallback_past_newer_checkpoint_refuses(
        self, toy_stats, reference
    ):
        """When the newest snapshot is unreadable, falling back to an
        older one cannot silently succeed: the WAL was rotated at the
        newest checkpoint, so the mutations between the two snapshots are
        gone. The rotated log's floor record is the witness."""
        io = FaultyIO()
        acked = _durable_run(toy_stats, reference["events"], io)
        assert acked == len(reference["events"])
        io.crash()
        newest = max(
            name for name in io.listdir(DIR) if name.startswith("snapshot-")
        )
        io.flip_byte(f"{DIR}/{newest}", 0)
        with pytest.raises(BrokenChain, match="refusing recovery"):
            _recover(toy_stats, io)

    def test_skipped_snapshot_wal_seq_is_a_gap_witness(
        self, toy_stats, reference
    ):
        """Even with no floor record to testify (the WAL vanished), a
        newer-but-unrestorable snapshot's own wal_seq proves acknowledged
        history reached past everything recoverable."""
        io = FaultyIO()
        engine = _fresh_engine(toy_stats)
        durability = Durability(DIR, io=io, fsync_interval_ms=0)
        durability.attach(engine)
        for event in reference["events"][:3]:
            _apply_event(engine, event)
        durability.checkpoint()
        durability.close()
        # A later checkpoint in a retired format: parseable, unrestorable.
        atomic_write_json(
            f"{DIR}/snapshot-000002.json",
            {"version": 3, "snapshot_id": 2, "wal_seq": 50},
            io=io,
        )
        io.remove(f"{DIR}/wal.log")
        with pytest.raises(BrokenChain, match="skipped"):
            _recover(toy_stats, io)

    def test_malformed_snapshot_falls_back_to_older_one(
        self, toy_stats, reference
    ):
        """A parseable version-4 document with missing fields is skipped
        like an unreadable one: recovery restores the older snapshot and
        continues step-identically with it."""
        io = FaultyIO()
        events = reference["events"]
        engine = _fresh_engine(toy_stats)
        durability = Durability(DIR, io=io, fsync_interval_ms=0)
        durability.attach(engine)
        for event in events[:3]:
            _apply_event(engine, event)
        first = durability.checkpoint()
        durability.close()
        atomic_write_json(
            f"{DIR}/snapshot-000002.json", {"version": 4, "wal_seq": 0}, io=io
        )
        recovered, report = _recover(toy_stats, io)
        assert report["snapshot_id"] == 1
        assert [s["snapshot_id"] for s in report["skipped_snapshots"]] == [2]
        alone = TuningEngine.restore(
            json.loads(io.read_bytes(first)),
            WhatIfOptimizer(toy_stats),
            StatsTransitionCosts(toy_stats),
        )
        for index, event in enumerate(events[3:], start=3):
            _apply_event(recovered, event)
            _apply_event(alone, event)
            _assert_signatures_equal(
                _signature(recovered),
                _signature(alone),
                f"event {index}: recovered != restored from snapshot 1",
            )


# ---------------------------------------------------------------------------
# Self-contained snapshots
# ---------------------------------------------------------------------------

class TestSelfContainedSnapshots:
    def test_every_checkpoint_restores_on_its_own(self, toy_stats, reference):
        """Checkpoint, vote, checkpoint: the vote-only interval leaves
        most parts' work functions untouched, yet each published file is
        a whole snapshot that restores with no other file's help, and
        recovery lands on the live engine's state."""
        io = FaultyIO()
        events = reference["events"]
        assert events[3][0] == "vote"
        engine = _fresh_engine(toy_stats)
        durability = Durability(DIR, io=io, fsync_interval_ms=0)
        durability.attach(engine)
        for event in events[:3]:
            _apply_event(engine, event)
        paths = [durability.checkpoint()]
        _apply_event(engine, events[3])
        paths.append(durability.checkpoint())
        durability.close()
        io.crash()
        for prefix, path in zip((3, 4), paths):
            restored = TuningEngine.restore(
                json.loads(io.read_bytes(path)),
                WhatIfOptimizer(toy_stats),
                StatsTransitionCosts(toy_stats),
            )
            _assert_signatures_equal(
                _signature(restored),
                reference["signatures"][prefix],
                f"{path} did not restore on its own",
            )
        recovered, report = _recover(toy_stats, io)
        assert report["snapshot_id"] == 2
        assert report["wal_replayed"] == 0
        _assert_signatures_equal(
            _signature(recovered), _signature(engine), "recovered != live"
        )


# ---------------------------------------------------------------------------
# Random kill points (hypothesis)
# ---------------------------------------------------------------------------

class TestRandomKillPoints:
    @settings(max_examples=20, deadline=None)
    @given(
        kill_op=st.integers(min_value=1, max_value=60),
        phase=st.sampled_from(["before", "mid"]),
        checkpoint_every=st.sampled_from([2, 3, 5]),
    )
    def test_recovery_is_step_identical_for_any_kill_point(
        self, toy_stats, reference, kill_op, phase, checkpoint_every
    ):
        """Crash at the N-th mutating IO op (or mid-way through the N-th
        write), recover, finish the workload: always step-identical."""
        io = FaultyIO()
        if phase == "mid":
            io.schedule_crash(op="write", at=kill_op, phase="mid")
        else:
            io.schedule_crash(op="*", at=kill_op, phase="before")
        acked = _durable_run(
            toy_stats,
            reference["events"],
            io,
            checkpoint_every=checkpoint_every,
        )
        if io.crashes == 0:
            # Kill point beyond the run's op count: a clean run. Still
            # recover from durable state to close the loop.
            io.crash()
        _recover_and_verify(toy_stats, reference, io, acked)
