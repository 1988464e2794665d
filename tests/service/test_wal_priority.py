"""WAL/snapshot compatibility for the priority scheduler (ISSUE 10).

The compat contract has two directions. Backward: submit records written
by the pre-scheduler engine (PR 9) carry no ``priority`` key and must
replay as ``normal`` — explicitly, never through the session's *current*
default, which may have changed by replay time. Forward: an all-``normal``
history written by the new engine stays byte-compatible with the old
format — no ``priority`` keys, no ``drain`` records — so the two formats
are only distinguishable once a non-default class is actually used.
"""

from __future__ import annotations

import pytest

from repro.db import StatsTransitionCosts
from repro.optimizer import WhatIfOptimizer
from repro.service import Durability, TuningEngine
from repro.service.wal import WriteAheadLog, read_wal

SALES = "shop.sales"

ENGINE_OPTIONS = {"batch_size": 4, "idx_cnt": 8, "state_cnt": 64}


def narrow_sql(stats, column="amount", fraction=0.02, offset=0.0):
    col = stats.column_stats(SALES, column)
    lo = col.min_value + col.domain_width * offset
    hi = lo + col.domain_width * fraction
    return f"SELECT count(*) FROM shop.sales WHERE {column} BETWEEN {lo} AND {hi}"


def fresh_engine(stats) -> TuningEngine:
    return TuningEngine(
        WhatIfOptimizer(stats), StatsTransitionCosts(stats), **ENGINE_OPTIONS
    )


def recover(stats, directory):
    return Durability.recover(
        directory,
        WhatIfOptimizer(stats),
        StatsTransitionCosts(stats),
        engine_options=dict(ENGINE_OPTIONS),
    )


class TestMixedVersionWal:
    def test_priorityless_records_replay_as_normal(self, toy_stats, tmp_path):
        """A WAL written by the PR-9 engine (no priority keys anywhere)
        recovers with every statement in the ``normal`` class."""
        wal = WriteAheadLog(tmp_path / "wal.log")
        for offset in (0.0, 0.1):
            wal.append("submit", {
                "client_id": "legacy",
                "sql": narrow_sql(toy_stats, offset=offset),
            })
        wal.append("submit_many", {"entries": [
            {"client_id": "legacy", "sql": narrow_sql(toy_stats, offset=0.2)},
        ]})
        wal.close()
        engine, report = recover(toy_stats, tmp_path)
        assert report["wal_replayed"] == 3
        assert engine.queue_depths == {
            "interactive": 0, "normal": 3, "background": 0,
        }
        assert engine.pump() == 3
        assert engine.session("legacy").statements_processed == 3

    def test_mixed_old_and_new_records(self, toy_stats, tmp_path):
        """Old priority-less records interleaved with new priority-tagged
        ones: the old ones land in ``normal``, the new ones in their
        recorded class — regardless of any session default."""
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append("submit", {
            "client_id": "legacy", "sql": narrow_sql(toy_stats),
        })
        wal.append("submit", {
            "client_id": "fg", "sql": narrow_sql(toy_stats, offset=0.1),
            "priority": "interactive",
        })
        wal.append("submit_many", {"entries": [
            {"client_id": "flood", "sql": narrow_sql(toy_stats, offset=0.2),
             "priority": "background"},
            {"client_id": "legacy", "sql": narrow_sql(toy_stats, offset=0.3)},
        ]})
        wal.close()
        engine, report = recover(toy_stats, tmp_path)
        assert report["wal_replayed"] == 2 + 1
        assert engine.queue_depths == {
            "interactive": 1, "normal": 2, "background": 1,
        }
        # Recovery restores the queue; a fresh pump drains in class order.
        engine.pump(1)
        assert engine.session("fg").statements_processed == 1

    def test_replay_ignores_current_session_default(self, toy_stats, tmp_path):
        """The absent-key default is the *record's* class (normal), not
        whatever the session's default priority is at replay time."""
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append("submit", {
            "client_id": "c", "sql": narrow_sql(toy_stats),
        })
        wal.close()
        engine, _ = recover(toy_stats, tmp_path)
        # Even after the recovered session's default changes, the already
        # replayed entry stays where the record put it.
        engine.session("c", priority="interactive")
        assert engine.queue_depths["normal"] == 1
        assert engine.queue_depths["interactive"] == 0


class TestForwardFormatCompat:
    def test_all_normal_history_writes_no_priority_artifacts(
        self, toy_stats, tmp_path
    ):
        """Default-priority traffic through the new engine produces a log
        with no ``priority`` keys and no ``drain`` records — byte-level
        compatibility with the PR-9 format."""
        engine = fresh_engine(toy_stats)
        durability = Durability(tmp_path, fsync_interval_ms=0)
        durability.attach(engine)
        for offset in (0.0, 0.1):
            engine.submit("a", narrow_sql(toy_stats, offset=offset))
        engine.pump()
        engine.submit_many([("b", narrow_sql(toy_stats, offset=0.2))])
        engine.pump()
        durability.close()
        scan = read_wal(tmp_path / "wal.log")
        kinds = [record.kind for record in scan.records]
        assert "drain" not in kinds
        for record in scan.records:
            if record.kind == "submit":
                assert "priority" not in record.payload
            elif record.kind == "submit_many":
                for entry in record.payload["entries"]:
                    assert "priority" not in entry

    def test_priority_history_round_trips_through_recovery(
        self, toy_stats, tmp_path
    ):
        """Once a non-default class appears, drains are logged and
        recovery reproduces the exact analysis state — processed counts,
        per-class backlog, and both totWork series."""
        engine = fresh_engine(toy_stats)
        durability = Durability(tmp_path, fsync_interval_ms=0)
        durability.attach(engine)
        engine.submit("fg", narrow_sql(toy_stats), priority="interactive")
        engine.submit("a", narrow_sql(toy_stats, offset=0.1))
        for offset in (0.2, 0.3, 0.4):
            engine.submit(
                "flood", narrow_sql(toy_stats, offset=offset),
                priority="background",
            )
        engine.pump(3)  # fg, a, and one background statement
        durability.close()
        scan = read_wal(tmp_path / "wal.log")
        assert any(record.kind == "drain" for record in scan.records)
        recovered, report = recover(toy_stats, tmp_path)
        assert report["wal_replayed"] == len(scan.records)
        assert recovered.statements_processed == engine.statements_processed
        assert recovered.queue_depths == engine.queue_depths
        assert recovered.total_work == engine.total_work
        assert recovered.realized_total_work == engine.realized_total_work
        assert (
            recovered.session("flood").statements_processed
            == engine.session("flood").statements_processed
        )


class TestCatchUpDrain:
    def test_undocumented_drains_catch_up_in_the_default_class(
        self, toy_stats, tmp_path
    ):
        """Drains that ran before the first non-default submission leave no
        drain records. A vote logged after an interactive submission makes
        recovery catch up to the vote's position; the catch-up must pop
        the ``normal`` statements those drains analyzed, not the
        interactive one that class rank would put first."""
        engine = fresh_engine(toy_stats)
        durability = Durability(tmp_path, fsync_interval_ms=0)
        durability.attach(engine)
        for offset in (0.0, 0.1, 0.2, 0.3, 0.4):
            engine.submit("a", narrow_sql(toy_stats, offset=offset))
        engine.pump()  # every entry so far is normal: no drain records
        engine.submit(
            "fg", narrow_sql(toy_stats, column="sale_date", offset=0.5),
            priority="interactive",
        )
        voted = sorted(engine.tuner.candidates)[:1]
        assert voted
        engine.vote("dba", frozenset(voted), frozenset())  # position 5
        engine.submit("a", narrow_sql(toy_stats, offset=0.6))
        engine.pump()
        durability.close()
        kinds = [record.kind for record in read_wal(tmp_path / "wal.log").records]
        assert kinds.index("vote") < kinds.index("drain")

        recovered, _ = recover(toy_stats, tmp_path)
        recovered.pump()
        assert recovered.tuner.export_state() == engine.tuner.export_state()
        assert recovered.total_work == engine.total_work
        assert recovered.realized_total_work == engine.realized_total_work
        for client in ("a", "fg"):
            assert (
                recovered.session(client).statements_processed
                == engine.session(client).statements_processed
            )
