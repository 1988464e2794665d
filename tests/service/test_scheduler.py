"""Priority scheduler contracts (ISSUE 10): lanes, admission, drain rules.

Unit level: :class:`repro.service.scheduler.IngestScheduler` drain order
is a pure function of (priority rank, arrival seq), and admission control
is all-or-nothing with typed rejections. Engine level: uniform-priority
ingest is bit-identical to one-statement-at-a-time FIFO ingest on both
kernel backends (the refactor's no-behavior-change proof), foreground
always preempts a queued background flood, ``stop``/``checkpoint`` drain
exactly the classes they document, and the deferred-task lane runs only
in idle windows with exceptions contained.
"""

from __future__ import annotations

import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.wfa_kernel import available_backends, force_backend
from repro.db import StatsTransitionCosts
from repro.optimizer import WhatIfOptimizer
from repro.service import (
    DEFAULT_PRIORITY,
    IngestScheduler,
    PRIORITIES,
    QueueFull,
    TuningEngine,
)
from repro.service.scheduler import (
    BACKGROUND_CLASSES,
    FOREGROUND_CLASSES,
    normalize_priority,
)

SALES = "shop.sales"


def narrow_sql(stats, column="amount", fraction=0.02, offset=0.0):
    col = stats.column_stats(SALES, column)
    lo = col.min_value + col.domain_width * offset
    hi = lo + col.domain_width * fraction
    return f"SELECT count(*) FROM shop.sales WHERE {column} BETWEEN {lo} AND {hi}"


def make_engine(toy_stats, **kwargs) -> TuningEngine:
    kwargs.setdefault("batch_size", 4)
    kwargs.setdefault("idx_cnt", 8)
    kwargs.setdefault("state_cnt", 64)
    return TuningEngine(
        WhatIfOptimizer(toy_stats), StatsTransitionCosts(toy_stats), **kwargs
    )


# ---------------------------------------------------------------------------
# Scheduler data structure
# ---------------------------------------------------------------------------

class TestSchedulerUnit:
    def test_priority_constants(self):
        assert PRIORITIES == ("interactive", "normal", "background")
        assert DEFAULT_PRIORITY == "normal"
        assert FOREGROUND_CLASSES + BACKGROUND_CLASSES == PRIORITIES

    def test_normalize_rejects_unknown(self):
        assert normalize_priority("interactive") == "interactive"
        with pytest.raises(ValueError, match="unknown priority"):
            normalize_priority("turbo")

    def test_take_orders_by_rank_then_seq(self):
        sched = IngestScheduler()
        sched.push("background", "c", "s0")
        sched.push("normal", "a", "s1")
        sched.push("interactive", "b", "s2")
        sched.push("normal", "a", "s3")
        sched.push("interactive", "b", "s4")
        popped = sched.take(10, PRIORITIES)
        assert [e.statement for e in popped] == ["s2", "s4", "s1", "s3", "s0"]
        # FIFO within a class, classes in rank order.
        assert [e.priority for e in popped] == (
            ["interactive"] * 2 + ["normal"] * 2 + ["background"]
        )

    def test_take_respects_class_filter_and_limit(self):
        sched = IngestScheduler()
        for i in range(3):
            sched.push("background", "c", f"b{i}")
            sched.push("normal", "a", f"n{i}")
        assert [
            e.statement for e in sched.take(2, ("background",))
        ] == ["b0", "b1"]
        assert sched.depths() == {
            "interactive": 0, "normal": 3, "background": 1,
        }

    def test_entries_snapshot_in_arrival_order(self):
        sched = IngestScheduler()
        sched.push("background", "c", "s0")
        sched.push("interactive", "b", "s1")
        assert [e.statement for e in sched.entries()] == ["s0", "s1"]
        assert sched.depth() == 2  # snapshot does not pop

    def test_admission_rejects_then_admits_after_drain(self):
        sched = IngestScheduler(limits={"background": 2})
        sched.push("background", "c", "s0")
        sched.push("background", "c", "s1")
        with pytest.raises(QueueFull) as info:
            sched.push("background", "c", "s2")
        assert info.value.priority == "background"
        assert info.value.limit == 2
        assert info.value.depth == 2
        assert sched.rejections()["background"] == 1
        assert sched.depth() == 2
        sched.take(1, ("background",))
        sched.push("background", "c", "s2")  # retry succeeds after drain
        assert sched.depth() == 2

    def test_push_many_is_all_or_nothing(self):
        sched = IngestScheduler(limits={"normal": 3})
        sched.push("normal", "a", "s0")
        with pytest.raises(QueueFull) as info:
            sched.push_many([("normal", "a", s) for s in ("s1", "s2", "s3")])
        assert info.value.requested == 3
        assert sched.depth() == 1  # nothing from the batch was enqueued
        sched.push_many([("normal", "a", s) for s in ("s1", "s2")])
        assert sched.depth() == 3

    def test_priorities_seen_is_sticky(self):
        sched = IngestScheduler()
        sched.push("normal", "a", "s0")
        assert not sched.priorities_seen
        sched.push("interactive", "a", "s1")
        assert sched.priorities_seen
        sched.take(10, PRIORITIES)
        assert sched.priorities_seen  # survives draining

    @settings(max_examples=60, deadline=None)
    @given(
        priorities=st.lists(
            st.sampled_from(PRIORITIES), min_size=1, max_size=30
        ),
        chunk=st.integers(1, 8),
    )
    def test_drain_order_is_pure_function_of_rank_and_seq(
        self, priorities, chunk
    ):
        """Popping in any chunking yields the same global order, and that
        order is exactly (class rank, arrival seq)."""
        sched = IngestScheduler()
        for seq, priority in enumerate(priorities):
            sched.push(priority, "c", seq)
        drained = []
        while True:
            got = sched.take(chunk, PRIORITIES)
            if not got:
                break
            drained.extend(got)
        expected = sorted(
            range(len(priorities)),
            key=lambda seq: (PRIORITIES.index(priorities[seq]), seq),
        )
        assert [e.statement for e in drained] == expected

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 30),
        priority=st.sampled_from(PRIORITIES),
        chunk=st.integers(1, 8),
    )
    def test_uniform_priority_drains_fifo(self, n, priority, chunk):
        sched = IngestScheduler()
        for seq in range(n):
            sched.push(priority, "c", seq)
        drained = []
        while True:
            got = sched.take(chunk, PRIORITIES)
            if not got:
                break
            drained.extend(e.statement for e in got)
        assert drained == list(range(n))


# ---------------------------------------------------------------------------
# Engine: uniform priority == the pre-scheduler FIFO, bit for bit
# ---------------------------------------------------------------------------

class TestUniformPriorityBitIdentity:
    @pytest.mark.parametrize("backend", available_backends())
    @settings(max_examples=8, deadline=None)
    @given(
        data=st.data(),
        priority=st.sampled_from(PRIORITIES),
        batch_size=st.integers(1, 5),
    )
    def test_engine_matches_fifo_drain(
        self, toy_stats, backend, data, priority, batch_size
    ):
        """With every submission in ONE class, the priority scheduler's
        batched pump must reproduce FIFO ingest exactly — the oracle
        analyzes each statement as it is submitted (submit, then
        ``pump(1)``): same analysis order, same recommendations,
        bit-identical totWork — on both kernel backends."""
        n = data.draw(st.integers(2, 8), label="n_statements")
        offsets = [
            data.draw(st.integers(0, 9), label=f"offset{i}")
            for i in range(n)
        ]
        clients = [
            data.draw(st.sampled_from(["a", "b"]), label=f"client{i}")
            for i in range(n)
        ]
        with force_backend(backend):
            runs = []
            for fifo in (False, True):
                engine = make_engine(toy_stats, batch_size=batch_size)
                for client, offset in zip(clients, offsets):
                    engine.submit(
                        client,
                        narrow_sql(toy_stats, offset=offset * 0.05),
                        priority=priority,
                    )
                    if fifo:
                        assert engine.pump(1) == 1
                if not fifo:
                    assert engine.pump() == n
                runs.append((
                    tuple(sorted(ix.name for ix in engine.tuner.recommend())),
                    engine.total_work,
                    engine.realized_total_work,
                    {
                        c: engine.session(c).statements_processed
                        for c in set(clients)
                    },
                ))
            assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# Engine: admission control
# ---------------------------------------------------------------------------

class TestEngineAdmission:
    def test_submit_rejected_then_retried(self, toy_stats):
        engine = make_engine(toy_stats, queue_limits={"interactive": 2})
        sql = narrow_sql(toy_stats)
        engine.submit("a", sql, priority="interactive")
        engine.submit("a", sql, priority="interactive")
        with pytest.raises(QueueFull):
            engine.submit("a", sql, priority="interactive")
        metrics = engine.metrics()
        assert metrics["backpressure_rejections"] == 1
        assert metrics["backpressure_rejections_by_class"]["interactive"] == 1
        # The rejected statement was never admitted anywhere.
        assert engine.queue_depth == 2
        engine.pump()
        engine.submit("a", sql, priority="interactive")  # retry succeeds
        assert engine.queue_depths["interactive"] == 1

    def test_rejected_submit_does_not_count_as_submitted(self, toy_stats):
        engine = make_engine(toy_stats, queue_limits={"normal": 1})
        sql = narrow_sql(toy_stats)
        session = engine.session("a")
        session.submit(sql)
        with pytest.raises(QueueFull):
            session.submit(sql)
        engine.pump()
        assert session.statements_processed == 1

    def test_submit_many_all_or_nothing(self, toy_stats):
        engine = make_engine(toy_stats, queue_limits={"background": 2})
        sql = narrow_sql(toy_stats)
        with pytest.raises(QueueFull):
            engine.submit_many([("a", sql, "background")] * 3)
        assert engine.queue_depth == 0
        engine.submit_many([("a", sql, "background")] * 2)
        assert engine.queue_depths["background"] == 2

    def test_limits_are_per_class(self, toy_stats):
        engine = make_engine(toy_stats, queue_limits={"background": 1})
        sql = narrow_sql(toy_stats)
        engine.submit("a", sql, priority="background")
        with pytest.raises(QueueFull):
            engine.submit("a", sql, priority="background")
        # Other classes are not affected by the background bound.
        engine.submit("a", sql)
        engine.submit("a", sql, priority="interactive")
        assert engine.queue_depth == 3


# ---------------------------------------------------------------------------
# Engine: lane rules (foreground first, paced background, deferred tasks)
# ---------------------------------------------------------------------------

class TestLaneRules:
    def test_foreground_never_starved_by_background_backlog(self, toy_stats):
        engine = make_engine(toy_stats)
        sql = narrow_sql(toy_stats)
        for _ in range(6):
            engine.submit("flood", sql, priority="background")
        engine.submit("fg", sql, priority="interactive")
        engine.submit("fg", sql)  # normal
        # One bounded pump: both foreground statements go first.
        assert engine.pump(2) == 2
        assert engine.session("fg").statements_processed == 2
        assert engine.session("flood").statements_processed == 0
        assert engine.queue_depths["background"] == 6

    def test_background_batches_are_bounded(self, toy_stats):
        engine = make_engine(
            toy_stats, batch_size=4, background_batch_size=2
        )
        sql = narrow_sql(toy_stats)
        for _ in range(4):
            engine.submit("flood", sql, priority="background")
        before = engine.batches_processed
        engine.pump()
        # 4 background statements in batches of ≤2 → 2 batches, even
        # though the foreground batch budget is 4.
        assert engine.batches_processed - before == 2

    def test_interactive_preempts_between_background_batches(self, toy_stats):
        engine = make_engine(toy_stats, background_batch_size=1)
        sql = narrow_sql(toy_stats)
        for _ in range(3):
            engine.submit("flood", sql, priority="background")
        # Budget 2: one background batch runs, then the loop re-checks
        # the foreground queues before the next — an arrival submitted
        # mid-pump would land there. Here we prove the granularity: two
        # background singleton batches, not one batch of two.
        before = engine.batches_processed
        assert engine.pump(2) == 2
        assert engine.batches_processed - before == 2

    def test_pump_classes_filter(self, toy_stats):
        engine = make_engine(toy_stats)
        sql = narrow_sql(toy_stats)
        engine.submit("a", sql, priority="background")
        engine.submit("a", sql)
        assert engine.pump(classes=("background",)) == 1
        assert engine.queue_depths == {
            "interactive": 0, "normal": 1, "background": 0,
        }

    def test_deferred_tasks_run_only_when_queues_idle(self, toy_stats):
        engine = make_engine(toy_stats)
        ran = []
        engine.defer("probe", lambda: ran.append("probe"))
        engine.submit("a", narrow_sql(toy_stats))
        assert engine.run_background_tasks() == 0  # statement queued
        assert ran == []
        engine.pump()
        assert engine.run_background_tasks() == 1
        assert ran == ["probe"]
        tasks = engine.metrics()["background_tasks"]
        assert tasks["deferred"] == 1
        assert tasks["run"] == 1
        assert tasks["queued"] == 0

    def test_deferred_task_errors_are_contained(self, toy_stats):
        engine = make_engine(toy_stats)

        def boom() -> None:
            raise RuntimeError("maintenance failed")

        engine.defer("boom", boom)
        engine.defer("ok", lambda: None)
        assert engine.run_background_tasks() == 2
        tasks = engine.metrics()["background_tasks"]
        assert tasks["errors"] == 1
        assert "maintenance failed" in tasks["last_error"]
        assert tasks["run"] == 2


# ---------------------------------------------------------------------------
# Engine: drain/stop/checkpoint semantics
# ---------------------------------------------------------------------------

class TestDrainSemantics:
    def test_stop_drains_foreground_only(self, toy_stats):
        engine = make_engine(toy_stats)
        sql = narrow_sql(toy_stats)
        engine.start(poll_interval=0.005)
        engine.stop(drain=False)  # thread down; queues untouched from here
        engine.submit("a", sql, priority="interactive")
        engine.submit("a", sql)
        engine.submit("flood", sql, priority="background")
        engine.stop(drain=True)
        assert engine.queue_depths == {
            "interactive": 0, "normal": 0, "background": 1,
        }
        assert engine.session("a").statements_processed == 2

    def test_checkpoint_drain_true_drains_every_class(self, toy_stats):
        engine = make_engine(toy_stats)
        sql = narrow_sql(toy_stats)
        engine.submit("a", sql, priority="interactive")
        engine.submit("flood", sql, priority="background")
        document = engine.checkpoint(drain=True)
        assert engine.queue_depth == 0
        assert document["pending"] == []
        assert engine.session("flood").statements_processed == 1

    def test_checkpoint_drain_false_serializes_priorities(self, toy_stats):
        engine = make_engine(toy_stats)
        sql = narrow_sql(toy_stats)
        engine.submit("a", sql, priority="interactive")
        engine.submit("b", sql)
        engine.submit("c", sql, priority="background")
        document = engine.checkpoint(drain=False)
        assert engine.queue_depth == 3  # checkpoint paid for no analysis
        pending = document["pending"]
        assert [item.get("priority", "normal") for item in pending] == [
            "interactive", "normal", "background",
        ]
        restored = TuningEngine.restore(
            document,
            WhatIfOptimizer(toy_stats),
            StatsTransitionCosts(toy_stats),
        )
        assert restored.queue_depths == engine.queue_depths
        # The restored queue drains in the same class order.
        restored.pump(1)
        assert restored.session("a").statements_processed == 1

    def test_threaded_flood_interactive_finishes_first(self, toy_stats):
        """Live drain thread, queued background flood, concurrent
        interactive submitters: every interactive statement completes
        while flood backlog remains, and nothing is rejected."""
        engine = make_engine(toy_stats, background_pacing=0.002)
        sql = narrow_sql(toy_stats)
        flood = 400
        engine.submit_many(
            [("flood", sql, "background")] * flood
        )
        engine.start(poll_interval=0.005)
        per_thread = 5
        errors = []

        def trickle(client: str) -> None:
            try:
                session = engine.session(client, priority="interactive")
                for i in range(per_thread):
                    session.submit(narrow_sql(toy_stats, offset=i * 0.05))
                    time.sleep(0.001)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=trickle, args=(f"fg-{i}",))
            for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            done = sum(
                engine.session(f"fg-{i}").statements_processed
                for i in range(2)
            )
            if done == 2 * per_thread:
                break
            time.sleep(0.002)
        remaining = engine.queue_depths["background"]
        engine.stop(drain=False)
        assert not errors
        assert done == 2 * per_thread
        assert remaining > 0, "flood drained before the interactive trickle"
        assert engine.backpressure_rejections == 0
        # The flood stays available for later idle windows.
        assert engine.pump(classes=BACKGROUND_CLASSES) == remaining
