"""Tests for the multi-session tuning engine (ingest, routing, metrics)."""

from __future__ import annotations

import pytest

from repro.db import Index, StatsTransitionCosts
from repro.optimizer import WhatIfOptimizer
from repro.service import QueueFull, TuningEngine, WriteAheadLog, read_wal
from statements import SIX_TABLE_JOIN_SQL, UNKNOWN_TABLE_SQL

SALES = "shop.sales"


def narrow_sql(stats, column="amount", fraction=0.02, offset=0.0):
    col = stats.column_stats(SALES, column)
    lo = col.min_value + col.domain_width * offset
    hi = lo + col.domain_width * fraction
    return f"SELECT count(*) FROM shop.sales WHERE {column} BETWEEN {lo} AND {hi}"


@pytest.fixture()
def engine(toy_stats) -> TuningEngine:
    return TuningEngine(
        WhatIfOptimizer(toy_stats),
        StatsTransitionCosts(toy_stats),
        batch_size=4,
        idx_cnt=8,
        state_cnt=64,
    )


class TestIngest:
    def test_submit_is_deferred_until_pump(self, engine, toy_stats):
        engine.submit("a", narrow_sql(toy_stats))
        assert engine.queue_depth == 1
        assert engine.statements_processed == 0
        assert engine.pump() == 1
        assert engine.queue_depth == 0
        assert engine.statements_processed == 1

    def test_pump_limit_and_order(self, engine, toy_stats):
        for i in range(6):
            engine.submit("a" if i % 2 == 0 else "b", narrow_sql(toy_stats))
        assert engine.pump(4) == 4
        assert engine.queue_depth == 2
        assert engine.pump() == 2
        a, b = engine.session("a"), engine.session("b")
        assert a.statements_processed == 3
        assert b.statements_processed == 3

    def test_micro_batches_accounted(self, engine, toy_stats):
        for _ in range(10):
            engine.submit("a", narrow_sql(toy_stats))
        engine.pump()
        # batch_size=4 → batches of 4, 4, 2.
        assert engine.batches_processed == 3

    def test_parse_on_submit(self, engine, toy_stats):
        parsed = engine.submit("a", narrow_sql(toy_stats))
        assert parsed.tables_referenced() == (SALES,)

    def test_background_drain(self, engine, toy_stats):
        engine.start()
        try:
            session = engine.session("a")
            for _ in range(8):
                session.submit(narrow_sql(toy_stats))
        finally:
            engine.stop(drain=True)
        assert engine.statements_processed == 8
        assert not engine.running

    def test_start_twice_rejected(self, engine):
        engine.start()
        try:
            with pytest.raises(RuntimeError):
                engine.start()
        finally:
            engine.stop()


class TestSessionRouting:
    def test_shared_recommendation(self, engine, toy_stats):
        a, b = engine.session("a"), engine.session("b")
        for _ in range(30):
            a.submit(narrow_sql(toy_stats))
        engine.pump()
        assert a.recommendation().recommended == b.recommendation().recommended

    def test_materialization_is_shared_and_validated(self, engine, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        engine.attach_wal(wal)
        a, b = engine.session("a"), engine.session("b")
        index = Index(SALES, ("amount",))
        a.create_index(index)
        assert index in b.materialized
        with pytest.raises(ValueError):
            b.create_index(index)
        b.drop_index(index)
        with pytest.raises(ValueError):
            a.drop_index(index)
        wal.close()
        # Each action is logged against the acting client; the rejected
        # calls leave no record.
        actions = [
            (record.payload["client_id"], record.payload["action"])
            for record in read_wal(tmp_path / "wal.log").records
        ]
        assert actions == [("a", "create"), ("b", "drop")]

    def test_only_submitting_clients_become_sessions(self, engine, toy_stats):
        """Reads, votes and DDL act on the shared core without making the
        caller a session; only submitting statements does."""
        engine.session("app").execute_many([narrow_sql(toy_stats)] * 3)
        index = Index(SALES, ("amount",))
        engine.recommendation("dba")
        engine.vote("dba", {index}, frozenset())
        engine.create_index("dba", index)
        engine.drop_index("dba", index)
        engine.adopt("dba")
        assert list(engine.metrics()["sessions"]) == ["app"]
        document = engine.checkpoint()
        assert [item["client_id"] for item in document["sessions"]] == ["app"]

    def test_rejected_calls_leave_no_session(self, toy_stats):
        """A call rejected for an unknown priority class or by admission
        control creates no session: none in metrics, none in checkpoints."""
        engine = TuningEngine(
            WhatIfOptimizer(toy_stats),
            StatsTransitionCosts(toy_stats),
            queue_limits={"normal": 1},
        )
        sql = narrow_sql(toy_stats)
        with pytest.raises(ValueError):
            engine.session("bad-session", priority="bogus")
        with pytest.raises(ValueError):
            engine.submit("bad-submit", sql, priority="bogus")
        with pytest.raises(ValueError):
            engine.submit_many([("bad-many", sql, "bogus")])
        engine.submit("app", sql)  # a new client resolves to "normal"
        with pytest.raises(QueueFull):
            engine.submit("full", sql)
        with pytest.raises(QueueFull):
            engine.submit_many([("full-many", sql), ("app", sql)])
        sessions = engine.metrics()["sessions"]
        assert list(sessions) == ["app"]
        assert sessions["app"]["priority"] == "normal"
        assert sessions["app"]["submitted"] == 1
        document = engine.checkpoint()
        assert [item["client_id"] for item in document["sessions"]] == ["app"]

    def test_votes_route_to_shared_core(self, engine, toy_stats):
        a, b = engine.session("a"), engine.session("b")
        a.execute(narrow_sql(toy_stats))
        index = Index(SALES, ("amount",))
        assert index in a.vote_up(index)
        assert index in engine.tuner.recommend()
        assert index not in b.vote_down(index)


class TestObservability:
    def test_metrics_shape(self, engine, toy_stats):
        engine.session("a").execute_many([narrow_sql(toy_stats)] * 3)
        metrics = engine.metrics()
        assert metrics["statements_processed"] == 3
        assert metrics["queue_depth"] == 0
        assert metrics["sessions"]["a"]["processed"] == 3
        assert metrics["cache"]["whatif_calls"] > 0
        assert 0.0 <= metrics["cache"]["statement_hit_rate"] <= 1.0

    def test_total_work_accumulates(self, engine, toy_stats):
        engine.session("a").execute_many([narrow_sql(toy_stats)] * 5)
        assert engine.total_work > 0.0

    def test_cache_stats_counters(self, toy_stats):
        optimizer = WhatIfOptimizer(toy_stats)
        engine = TuningEngine(
            optimizer, StatsTransitionCosts(toy_stats),
            idx_cnt=8, state_cnt=64,
        )
        session = engine.session("a")
        statement = session.execute(narrow_sql(toy_stats))
        before = optimizer.cache_stats()
        session.execute(statement)  # identical statement: pure cache traffic
        after = optimizer.cache_stats()
        assert after["optimizations"] == before["optimizations"]
        assert after["template_builds"] == before["template_builds"]
        gained_hits = after["statement_hits"] - before["statement_hits"]
        assert gained_hits > 0
        assert after["statement_hit_rate"] >= 0.0

    def test_reset_counters_clears_cache_stats(self, toy_optimizer):
        toy_optimizer._stmt_hits = 5
        toy_optimizer.reset_counters()
        stats = toy_optimizer.cache_stats()
        assert stats["statement_hits"] == 0
        assert stats["statement_hit_rate"] == 0.0

    def test_cache_stats_reset_gives_windowed_counts(self, toy_stats):
        optimizer = WhatIfOptimizer(toy_stats)
        engine = TuningEngine(
            optimizer, StatsTransitionCosts(toy_stats),
            idx_cnt=8, state_cnt=64,
        )
        session = engine.session("a")
        statement = session.execute(narrow_sql(toy_stats))
        window_one = optimizer.cache_stats(reset=True)
        assert window_one["whatif_calls"] > 0
        # The reset zeroed the counters: replaying the identical statement
        # yields a second window counting only its own traffic.
        session.execute(statement)
        window_two = optimizer.cache_stats(reset=True)
        assert window_two["optimizations"] == 0
        assert window_two["whatif_calls"] > 0
        assert optimizer.cache_stats()["whatif_calls"] == 0
        # The two windows add up to an unreset twin's run totals.
        twin_optimizer = WhatIfOptimizer(toy_stats)
        twin = TuningEngine(
            twin_optimizer, StatsTransitionCosts(toy_stats),
            idx_cnt=8, state_cnt=64,
        ).session("a")
        twin.execute(statement)
        twin.execute(statement)
        totals = twin_optimizer.cache_stats()
        for key in ("whatif_calls", "optimizations", "statement_hits",
                    "statement_misses", "template_hits", "template_builds"):
            assert window_one[key] + window_two[key] == totals[key], key

    def test_uptime_and_queue_depth_in_metrics(self, engine, toy_stats):
        engine.session("a").execute(narrow_sql(toy_stats))
        metrics = engine.metrics()
        assert metrics["uptime_s"] >= 0.0
        assert metrics["queue_depth"] == 0
        engine.submit("a", narrow_sql(toy_stats, offset=0.1))
        assert engine.metrics()["queue_depth"] == 1


class TestPercentile:
    """Nearest-rank percentile edge cases (the old formula read one rank
    too high: p50 of two samples returned the larger one)."""

    def test_empty_returns_zero(self):
        from repro.service.engine import _percentile
        assert _percentile([], 0.50) == 0.0

    def test_single_sample_is_every_percentile(self):
        from repro.service.engine import _percentile
        assert _percentile([7.0], 0.50) == 7.0
        assert _percentile([7.0], 0.95) == 7.0

    def test_p50_of_two_is_the_lower(self):
        from repro.service.engine import _percentile
        assert _percentile([1.0, 9.0], 0.50) == 1.0
        assert _percentile([1.0, 9.0], 0.95) == 9.0

    def test_nearest_rank_on_larger_windows(self):
        from repro.service.engine import _percentile
        samples = [float(i) for i in range(1, 101)]  # 1..100
        assert _percentile(samples, 0.50) == 50.0
        assert _percentile(samples, 0.95) == 95.0
        assert _percentile(samples, 1.0) == 100.0
        assert _percentile(samples, 0.0) == 1.0


class TestCheckpointWithPendingSubmissions:
    def test_pending_submissions_are_serialized_and_stay_queued(
        self, engine, toy_stats
    ):
        engine.session("a").execute(narrow_sql(toy_stats))
        engine.submit("a", narrow_sql(toy_stats, offset=0.1))
        engine.submit("b", narrow_sql(toy_stats, offset=0.2))
        # Snapshot without draining: the backlog is serialized into the
        # document (in submission order) *and* kept queued in the live
        # engine — a crash after this point loses nothing.
        document = engine.checkpoint(drain=False)
        assert engine.queue_depth == 2
        assert [item["client_id"] for item in document["pending"]] == ["a", "b"]
        session_a = next(
            s for s in document["sessions"] if s["client_id"] == "a"
        )
        assert session_a["submitted"] == session_a["processed"] == 1
        assert document["accounting"]["statements_processed"] == 1
        assert engine.pump() == 2  # the live engine still owns the backlog

    def test_checkpoint_drains_pending_first(self, engine, toy_stats):
        engine.submit("a", narrow_sql(toy_stats))
        document = engine.checkpoint()
        assert engine.queue_depth == 0
        assert document["accounting"]["statements_processed"] == 1
        assert document["pending"] == []

    def test_restore_replays_pending_statements(self, engine, toy_stats):
        """The ROADMAP gap: submitted-but-unpumped statements used to be
        silently dropped from checkpoints. They must replay on restore."""
        shadow = TuningEngine(
            WhatIfOptimizer(toy_stats),
            StatsTransitionCosts(toy_stats),
            batch_size=4,
            idx_cnt=8,
            state_cnt=64,
        )
        statements = [narrow_sql(toy_stats, offset=i * 0.05) for i in range(5)]
        for engine_ in (engine, shadow):
            for sql in statements[:2]:
                engine_.submit("a", sql)
            engine_.pump()
            for sql in statements[2:]:
                engine_.submit("a", sql)
        document = engine.checkpoint(drain=False)
        assert len(document["pending"]) == 3

        restored = TuningEngine.restore(
            document,
            WhatIfOptimizer(toy_stats),
            StatsTransitionCosts(toy_stats),
        )
        assert restored.queue_depth == 3
        assert restored.pump() == 3
        shadow.pump()
        # The restored engine caught up with an uninterrupted twin.
        assert restored.statements_processed == shadow.statements_processed == 5
        assert (
            restored.tuner.recommend() == shadow.tuner.recommend()
        )
        assert restored.total_work == pytest.approx(shadow.total_work)
        state = restored._client("a")
        assert state.submitted == state.processed == 5


class TestUnknownTables:
    """A statement naming a table without statistics is rejected at
    submit, before admission, the WAL append, the queue push or session
    creation — so it can neither stop the drain nor poison recovery."""

    @staticmethod
    def _observable(engine, wal):
        return (
            wal.records_appended,
            engine.queue_depth,
            engine.metrics()["sessions"],
        )

    def test_submit_rejects_sql_and_ast_alike(self, engine, toy_stats, tmp_path):
        from repro.db.schema import SchemaError
        from repro.query.parser import parse_statement

        wal = WriteAheadLog(tmp_path / "wal.log")
        engine.attach_wal(wal)
        engine.submit("a", narrow_sql(toy_stats))
        before = self._observable(engine, wal)
        for statement in (UNKNOWN_TABLE_SQL, parse_statement(UNKNOWN_TABLE_SQL)):
            for client in ("a", "new-client"):
                with pytest.raises(SchemaError, match="tpch.nosuch"):
                    engine.submit(client, statement)
        assert self._observable(engine, wal) == before
        assert engine.pump() == 1
        wal.close()

    def test_submit_many_with_one_unknown_table_does_nothing(
        self, engine, toy_stats, tmp_path
    ):
        from repro.db.schema import SchemaError

        wal = WriteAheadLog(tmp_path / "wal.log")
        engine.attach_wal(wal)
        before = self._observable(engine, wal)
        with pytest.raises(SchemaError):
            engine.submit_many([
                ("a", narrow_sql(toy_stats)),
                ("b", UNKNOWN_TABLE_SQL),
                ("c", narrow_sql(toy_stats, offset=0.1)),
            ])
        assert self._observable(engine, wal) == before
        wal.close()
        assert not read_wal(tmp_path / "wal.log").records

    def test_directory_that_saw_a_rejected_submit_recovers(
        self, toy_stats, tmp_path
    ):
        from repro.db.schema import SchemaError
        from repro.service.wal import Durability

        def fresh():
            return WhatIfOptimizer(toy_stats), StatsTransitionCosts(toy_stats)

        live = TuningEngine(*fresh(), idx_cnt=8, state_cnt=64)
        durability = Durability(tmp_path)
        durability.attach(live)
        for k in range(12):
            if k in (3, 9):
                with pytest.raises(SchemaError):
                    live.submit("a", UNKNOWN_TABLE_SQL)
            live.submit("a", narrow_sql(toy_stats, offset=0.05 * k))
            if k == 6:
                live.pump()
                durability.checkpoint()
        live.pump()
        durability.close()
        recovered, _ = TuningEngine.recover(tmp_path, *fresh())
        recovered.pump()
        assert recovered.statements_processed == live.statements_processed == 12
        assert recovered.total_work == live.total_work
        assert recovered.recommendation("a") == live.recommendation("a")


class TestWideJoins:
    def test_six_table_join_is_analyzed_through_submit_and_pump(self):
        """One benefit graph per table keeps it under the node cap."""
        from repro.db import build_catalog

        _, stats = build_catalog(scale=0.05)
        engine = TuningEngine(WhatIfOptimizer(stats), StatsTransitionCosts(stats))
        engine.submit("a", SIX_TABLE_JOIN_SQL)
        assert engine.pump() == 1
        assert engine.statements_processed == 1
