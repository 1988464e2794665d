"""Lagged-DBA totWork accounting (ISSUE 10 tentpole).

The engine keeps two §3.1 series: *recommended* totWork (immediate
adoption — ``total_work``, unchanged from earlier PRs) and *realized*
totWork (costs charged under the configurations actually materialized,
transitions charged when the DBA adopts). The contracts: a lag-0 DBA
(adopt after every statement) realizes exactly the recommended series,
larger lags are monotonically no better, and the driver-level
``track_recommended`` series reproduces an autonomous run bit for bit.
"""

from __future__ import annotations

from repro.core.driver import run_online
from repro.core.wfit import WFIT
from repro.db import StatsTransitionCosts
from repro.optimizer import WhatIfOptimizer
from repro.query.parser import parse_statement
from repro.service import TuningEngine

SALES = "shop.sales"


def narrow_sql(stats, column="amount", fraction=0.02, offset=0.0):
    col = stats.column_stats(SALES, column)
    lo = col.min_value + col.domain_width * offset
    hi = lo + col.domain_width * fraction
    return f"SELECT count(*) FROM shop.sales WHERE {column} BETWEEN {lo} AND {hi}"


def statements(stats, n=10):
    return [
        narrow_sql(
            stats,
            column="amount" if i % 2 == 0 else "customer_id",
            offset=(i % 5) * 0.12,
        )
        for i in range(n)
    ]


def fresh_engine(stats) -> TuningEngine:
    return TuningEngine(
        WhatIfOptimizer(stats),
        StatsTransitionCosts(stats),
        batch_size=1,
        idx_cnt=8,
        state_cnt=64,
    )


def lagged_run(stats, lag: int) -> TuningEngine:
    """Submit/pump one statement at a time; adopt every ``lag`` statements
    (``lease=lag > 1`` mirrors run_online's adopt_period convention)."""
    engine = fresh_engine(stats)
    for position, sql in enumerate(statements(stats)):
        engine.submit("dba", sql)
        engine.pump()
        if (position + 1) % lag == 0:
            engine.adopt("dba", lease=lag > 1)
    return engine


class TestEngineLagSeries:
    def test_lag_zero_realizes_recommended_exactly(self, toy_stats):
        engine = lagged_run(toy_stats, lag=1)
        # Bit-equality, not approx: both series accumulate per statement
        # as one `cost + transition` sum, so an immediate-adoption DBA
        # replays the recommended arithmetic exactly.
        assert engine.realized_total_work == engine.total_work
        assert engine.realized_total_work > 0

    def test_larger_lags_monotonically_no_better(self, toy_stats):
        totals = [
            lagged_run(toy_stats, lag).realized_total_work
            for lag in (1, 2, 5, 10)
        ]
        for tighter, looser in zip(totals, totals[1:]):
            assert looser >= tighter

    def test_never_adopting_realizes_initial_config_costs(self, toy_stats):
        engine = fresh_engine(toy_stats)
        for sql in statements(toy_stats):
            engine.submit("dba", sql)
            engine.pump()
        # No adoption: no transitions were paid, every cost was realized
        # under the (empty) initial materialized set.
        assert engine.materialized == frozenset()
        assert engine.realized_total_work >= engine.total_work
        metrics = engine.metrics()
        assert metrics["adoption"]["changes"] == 0
        assert metrics["adoption"]["last_position"] is None

    def test_adoption_metrics_track_lag(self, toy_stats):
        engine = lagged_run(toy_stats, lag=5)
        metrics = engine.metrics()
        adoption = metrics["adoption"]
        # last_position marks the last adoption that *changed* the
        # materialized set (a no-op adopt is not a configuration event);
        # the lag metric is the statements analyzed since then.
        assert adoption["last_position"] in (5, 10)
        assert adoption["lag_statements"] == 10 - adoption["last_position"]
        assert adoption["changes"] >= 1
        assert metrics["realized_total_work"] == engine.realized_total_work
        # Per-session shares cover query costs only — shared transition
        # costs live in the engine-level series.
        session = metrics["sessions"]["dba"]
        assert 0 < session["recommended_work"] <= engine.total_work
        assert 0 < session["realized_work"] <= engine.realized_total_work

    def test_lease_adoption_counts_wfit_feedback(self, toy_stats):
        engine = lagged_run(toy_stats, lag=5)  # lease=True path
        adoption = engine.metrics()["adoption"]
        assert adoption["feedback_count"] == 2  # one per adopt
        assert adoption["feedback_lag_statements"] == 0
        no_lease = lagged_run(toy_stats, lag=1)  # lease=False path
        assert no_lease.metrics()["adoption"]["feedback_count"] == 0


class TestDriverRecommendedSeries:
    def _wfit(self, stats) -> WFIT:
        return WFIT(
            WhatIfOptimizer(stats),
            StatsTransitionCosts(stats),
            idx_cnt=8,
            state_cnt=64,
        )

    def test_track_recommended_reproduces_autonomous_run(self, toy_stats):
        stmts = [parse_statement(sql) for sql in statements(toy_stats)]
        optimizer = WhatIfOptimizer(toy_stats)
        transitions = StatsTransitionCosts(toy_stats)
        autonomous = run_online(
            WFIT(optimizer, transitions, idx_cnt=8, state_cnt=64),
            stmts,
            optimizer.cost,
            transitions,
            optimizer=optimizer,
        )
        optimizer2 = WhatIfOptimizer(toy_stats)
        transitions2 = StatsTransitionCosts(toy_stats)
        lagged = run_online(
            WFIT(optimizer2, transitions2, idx_cnt=8, state_cnt=64),
            stmts,
            optimizer2.cost,
            transitions2,
            optimizer=optimizer2,
            adopt_period=4,
            track_recommended=True,
        )
        assert lagged.tracked_recommended
        # The lagged run's *recommended* series is the autonomous run's
        # realized series — sampled at the same point (right after
        # analyze, before feedback), accumulated with the same grouping.
        assert (
            lagged.recommended_total_work == autonomous.total_work
        )
        assert (
            lagged.recommended_total_work_series
            == autonomous.total_work_series
        )
        # And the lagged DBA can only do worse than full autonomy.
        assert lagged.total_work >= lagged.recommended_total_work

    def test_untracked_run_has_no_recommended_series(self, toy_stats):
        optimizer = WhatIfOptimizer(toy_stats)
        result = run_online(
            self._wfit(toy_stats),
            [parse_statement(sql) for sql in statements(toy_stats, n=4)],
            optimizer.cost,
            StatsTransitionCosts(toy_stats),
            optimizer=optimizer,
        )
        assert not result.tracked_recommended
        # Untracked points carry a zero recommended series.
        assert result.recommended_total_work == 0.0
        assert set(result.recommended_total_work_series) == {0.0}
