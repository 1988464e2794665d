"""Concurrency tests for the tuning engine: submit-while-draining stress,
lifecycle races, batched submission, and the bounded latency window.

The engine's concurrency contract: any number of submitter threads may run
against the background drain; afterwards every submission is processed
exactly once, each client's audit log lists its statements in its own
submission order (the queue is FIFO per client by construction), and a
checkpoint of the concurrently-driven engine restores step-identically.
"""

from __future__ import annotations

import threading

import pytest

from repro.db import StatsTransitionCosts
from repro.optimizer import WhatIfOptimizer
from repro.service import TuningEngine

SALES = "shop.sales"


def narrow_sql(stats, column="amount", fraction=0.02, offset=0.0):
    col = stats.column_stats(SALES, column)
    lo = col.min_value + col.domain_width * offset
    hi = lo + col.domain_width * fraction
    return f"SELECT count(*) FROM shop.sales WHERE {column} BETWEEN {lo} AND {hi}"


def make_engine(toy_stats, **options) -> TuningEngine:
    options.setdefault("batch_size", 4)
    options.setdefault("idx_cnt", 8)
    options.setdefault("state_cnt", 64)
    return TuningEngine(
        WhatIfOptimizer(toy_stats), StatsTransitionCosts(toy_stats), **options
    )


class TestSubmitWhileDraining:
    N_CLIENTS = 4
    PER_CLIENT = 12

    def _client_statements(self, toy_stats, client_index):
        return [
            narrow_sql(toy_stats, offset=0.01 * (client_index * self.PER_CLIENT + i))
            for i in range(self.PER_CLIENT)
        ]

    def test_stress_counts_ordering_and_checkpoint_identity(self, toy_stats):
        engine = make_engine(toy_stats)
        per_client = {
            f"client-{i}": self._client_statements(toy_stats, i)
            for i in range(self.N_CLIENTS)
        }
        release = threading.Event()

        def submitter(client_id, statements):
            release.wait(5.0)
            for sql in statements:
                engine.submit(client_id, sql)

        threads = [
            threading.Thread(target=submitter, args=item)
            for item in per_client.items()
        ]
        engine.start(poll_interval=0.005)
        try:
            for thread in threads:
                thread.start()
            release.set()  # all submitters race the running drain at once
            for thread in threads:
                thread.join()
        finally:
            engine.stop(drain=True)

        total = self.N_CLIENTS * self.PER_CLIENT
        assert engine.statements_processed == total
        assert engine.queue_depth == 0
        for client_id, statements in per_client.items():
            state = engine._client(client_id)
            assert state.submitted == state.processed == self.PER_CLIENT
            # Per-client event ordering: the audit log's statement events
            # replay the client's own submission order exactly.
            details = [
                e.detail for e in engine.history(client_id)
                if e.kind == "statement"
            ]
            assert details == [_to_sql(sql) for sql in statements]

        # Checkpoint/restore step-identity: the concurrently-driven engine
        # and its restored twin must walk the same suffix identically.
        document = engine.checkpoint()
        restored = TuningEngine.restore(
            document, WhatIfOptimizer(toy_stats), StatsTransitionCosts(toy_stats)
        )
        assert restored.statements_processed == engine.statements_processed
        assert restored.total_work == engine.total_work
        assert restored.tuner.recommend() == engine.tuner.recommend()
        suffix = [narrow_sql(toy_stats, offset=0.8 + 0.02 * i) for i in range(6)]
        for sql in suffix:
            engine.submit("client-0", sql)
            restored.submit("client-0", sql)
            engine.pump(1)
            restored.pump(1)
            assert restored.tuner.recommend() == engine.tuner.recommend()
        assert restored.total_work == engine.total_work

    def test_submit_many_races_background_drain(self, toy_stats):
        engine = make_engine(toy_stats)
        batches = [
            [("a", narrow_sql(toy_stats, offset=0.05 * b + 0.01 * i))
             for i in range(4)]
            for b in range(4)
        ]
        engine.start(poll_interval=0.005)
        try:
            workers = [
                threading.Thread(target=engine.submit_many, args=(batch,))
                for batch in batches
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        finally:
            engine.stop(drain=True)
        assert engine.statements_processed == 16
        details = [
            e.detail for e in engine.history("a") if e.kind == "statement"
        ]
        # Batches interleave arbitrarily, but each batch's statements keep
        # their internal submission order (single lock acquisition).
        for batch in batches:
            positions = [details.index(_to_sql(sql)) for _, sql in batch]
            assert positions == sorted(positions)


def _to_sql(sql: str) -> str:
    from repro.query.parser import parse_statement, to_sql

    return to_sql(parse_statement(sql))


class TestLifecycleRaces:
    def test_concurrent_start_admits_exactly_one(self, toy_stats):
        engine = make_engine(toy_stats)
        outcomes = []
        barrier = threading.Barrier(8)

        def racer():
            barrier.wait(5.0)
            try:
                engine.start()
                outcomes.append("started")
            except RuntimeError:
                outcomes.append("rejected")

        threads = [threading.Thread(target=racer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        try:
            assert outcomes.count("started") == 1
            assert outcomes.count("rejected") == 7
            assert engine.running
        finally:
            engine.stop()
        assert not engine.running

    def test_concurrent_stop_is_safe(self, toy_stats):
        engine = make_engine(toy_stats)
        engine.start()
        barrier = threading.Barrier(4)

        def stopper():
            barrier.wait(5.0)
            engine.stop(drain=False)

        threads = [threading.Thread(target=stopper) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not engine.running

    def test_start_stop_churn(self, toy_stats):
        """start/stop cycling from two threads never wedges or leaks: the
        engine always ends stoppable and processes everything submitted."""
        engine = make_engine(toy_stats)
        stop_all = threading.Event()

        def churner():
            while not stop_all.is_set():
                try:
                    engine.start(poll_interval=0.001)
                except RuntimeError:
                    pass
                engine.stop(drain=False)

        threads = [threading.Thread(target=churner) for _ in range(2)]
        for thread in threads:
            thread.start()
        for i in range(10):
            engine.submit("a", narrow_sql(toy_stats, offset=0.02 * i))
        stop_all.set()
        for thread in threads:
            thread.join()
        engine.stop(drain=True)
        assert engine.statements_processed == 10
        assert not engine.running


class TestSubmitMany:
    def test_batch_is_one_lock_acquisition_in_order(self, toy_stats):
        engine = make_engine(toy_stats)
        entries = [
            ("a", narrow_sql(toy_stats, offset=0.1)),
            ("b", narrow_sql(toy_stats, offset=0.2)),
            ("a", narrow_sql(toy_stats, offset=0.3)),
        ]
        assert engine.submit_many(entries) == 3
        assert engine.queue_depth == 3
        assert engine._client("a").submitted == 2
        assert engine._client("b").submitted == 1
        engine.pump()
        details = [
            e.detail for e in engine.history("a") if e.kind == "statement"
        ]
        assert details == [_to_sql(entries[0][1]), _to_sql(entries[2][1])]

    def test_empty_batch(self, toy_stats):
        engine = make_engine(toy_stats)
        assert engine.submit_many([]) == 0
        assert engine.queue_depth == 0

    def test_single_notify_wakes_the_drain(self, toy_stats):
        engine = make_engine(toy_stats)
        engine.start(poll_interval=10.0)  # only the notify can wake it fast
        try:
            engine.submit_many(
                ("a", narrow_sql(toy_stats, offset=0.02 * i)) for i in range(6)
            )
            deadline = threading.Event()
            for _ in range(200):
                if engine.statements_processed == 6:
                    break
                deadline.wait(0.05)
        finally:
            engine.stop(drain=True)
        assert engine.statements_processed == 6


class TestLatencyWindow:
    def test_window_is_bounded_and_configurable(self, toy_stats):
        engine = make_engine(toy_stats, latency_window=4)
        session = engine.session("a")
        for i in range(10):
            session.execute(narrow_sql(toy_stats, offset=0.02 * i))
        state = engine._client("a")
        assert len(state.latencies) == 4  # bounded: old samples evicted
        assert state.processed == 10
        metrics = engine.metrics()
        assert metrics["sessions"]["a"]["latency_p95_ms"] >= 0.0

    def test_default_window(self, toy_stats):
        engine = make_engine(toy_stats)
        assert engine.latency_window == 4096
        assert engine._client("a").latencies.maxlen == 4096

    def test_window_validation(self, toy_stats):
        with pytest.raises(ValueError, match="latency_window"):
            make_engine(toy_stats, latency_window=0)

