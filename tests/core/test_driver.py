"""Tests for the online tuning driver and its DBA models."""

from __future__ import annotations

import random

import pytest

from repro.core.driver import run_online
from repro.core.opt import FeedbackEvent
from repro.core.wfa import TransitionCosts
from repro.core.wfa_plus import WFAPlus

from synth import make_indices, make_synthetic_instance


class _ScriptedAlgorithm:
    """Recommends a fixed script of configurations; records feedback calls."""

    def __init__(self, script):
        self._script = list(script)
        self._step = -1
        self.feedback_calls = []

    def analyze_statement(self, statement):
        self._step += 1

    def recommend(self):
        return self._script[min(self._step, len(self._script) - 1)]

    def feedback(self, f_plus, f_minus):
        self.feedback_calls.append((frozenset(f_plus), frozenset(f_minus)))


class TestTotalWorkAccounting:
    def test_immediate_adoption_accounting(self):
        a = make_indices(1)[0]
        costs = {frozenset(): 10.0, frozenset({a}): 4.0}
        transitions = TransitionCosts(create={a: 7.0}, drop={a: 2.0})
        script = [frozenset(), frozenset({a}), frozenset({a})]
        algorithm = _ScriptedAlgorithm(script)
        result = run_online(
            algorithm, ["q1", "q2", "q3"],
            lambda q, X: costs[frozenset(X)], transitions,
        )
        # totWork = 10 + (7 + 4) + 4
        assert result.total_work == pytest.approx(25.0)
        assert result.points[1].transition_cost == pytest.approx(7.0)
        assert [point.configuration for point in result.points] == script

    def test_series_monotone_nondecreasing(self):
        rng = random.Random(1)
        workload, transitions = make_synthetic_instance(rng, [2, 2], 15)
        plus = WFAPlus(workload.partition, frozenset(), workload.cost, transitions)
        result = run_online(plus, workload.statements, workload.cost, transitions)
        series = result.total_work_series
        assert all(series[i] <= series[i + 1] + 1e-9 for i in range(len(series) - 1))

    def test_cost_uses_post_analysis_recommendation(self):
        """The task-system convention: S_n is chosen after q_n is revealed."""
        a = make_indices(1)[0]
        costs = {frozenset(): 10.0, frozenset({a}): 0.0}
        transitions = TransitionCosts(create={a: 1.0}, drop={a: 0.0})
        algorithm = _ScriptedAlgorithm([frozenset({a})])
        result = run_online(
            algorithm, ["q1"], lambda q, X: costs[frozenset(X)], transitions
        )
        assert result.points[0].query_cost == 0.0


class TestFeedbackDelivery:
    def test_events_applied_at_their_position(self):
        a, b = make_indices(2)
        algorithm = _ScriptedAlgorithm([frozenset()] * 3)
        events = [
            FeedbackEvent(-1, frozenset({a}), frozenset()),
            FeedbackEvent(1, frozenset(), frozenset({b})),
        ]
        run_online(
            algorithm, ["q1", "q2", "q3"], lambda q, X: 1.0,
            TransitionCosts(), feedback_events=events,
        )
        assert algorithm.feedback_calls == [
            (frozenset({a}), frozenset()),
            (frozenset(), frozenset({b})),
        ]

    def test_multiple_events_same_position(self):
        a, b = make_indices(2)
        algorithm = _ScriptedAlgorithm([frozenset()])
        events = [
            FeedbackEvent(0, frozenset({a}), frozenset()),
            FeedbackEvent(0, frozenset({b}), frozenset()),
        ]
        run_online(
            algorithm, ["q1"], lambda q, X: 1.0,
            TransitionCosts(), feedback_events=events,
        )
        assert len(algorithm.feedback_calls) == 2


class TestLaggedAdoption:
    def test_configuration_changes_only_at_period(self):
        rng = random.Random(2)
        workload, transitions = make_synthetic_instance(rng, [2], 12)
        plus = WFAPlus(workload.partition, frozenset(), workload.cost, transitions)
        result = run_online(
            plus, workload.statements, workload.cost, transitions, adopt_period=4
        )
        for point in result.points:
            if (point.position + 1) % 4 != 0:
                assert point.transition_cost == 0.0

    def test_lag_one_equals_immediate(self):
        rng = random.Random(3)
        workload, transitions = make_synthetic_instance(rng, [2, 1], 12)

        def fresh():
            return WFAPlus(
                workload.partition, frozenset(), workload.cost, transitions
            )

        immediate = run_online(fresh(), workload.statements, workload.cost, transitions)
        lag_one = run_online(
            fresh(), workload.statements, workload.cost, transitions, adopt_period=1
        )
        assert immediate.total_work == pytest.approx(lag_one.total_work)

    def test_lease_feedback_toggle(self):
        a, b = make_indices(2)
        algorithm = _ScriptedAlgorithm([frozenset({a})] * 4)
        run_online(
            algorithm, ["q"] * 4, lambda q, X: 1.0,
            TransitionCosts(), adopt_period=2, lease_feedback=True,
        )
        assert algorithm.feedback_calls, "acceptance must cast implicit votes"
        silent = _ScriptedAlgorithm([frozenset({a})] * 4)
        run_online(
            silent, ["q"] * 4, lambda q, X: 1.0,
            TransitionCosts(), adopt_period=2, lease_feedback=False,
        )
        assert not silent.feedback_calls

    def test_invalid_period(self):
        algorithm = _ScriptedAlgorithm([frozenset()])
        with pytest.raises(ValueError):
            run_online(algorithm, ["q"], lambda q, X: 1.0, TransitionCosts(),
                       adopt_period=0)


class TestResultObject:
    def test_empty_workload(self):
        algorithm = _ScriptedAlgorithm([frozenset()])
        result = run_online(algorithm, [], lambda q, X: 1.0, TransitionCosts())
        assert result.total_work == 0.0
        assert result.final_configuration == frozenset()

    def test_optimizer_counter_capture(self, toy_optimizer, toy_stats):
        from repro.core.wfit import WFIT
        from repro.db import StatsTransitionCosts
        from repro.query import select
        transitions = StatsTransitionCosts(toy_stats)
        col = toy_stats.column_stats("shop.sales", "amount")
        query = (
            select("shop.sales")
            .where_between("amount", col.min_value, col.min_value + 10)
            .build()
        )
        tuner = WFIT(toy_optimizer, transitions, idx_cnt=8, state_cnt=64)
        result = run_online(
            tuner, [query] * 3, toy_optimizer.cost, transitions,
            optimizer=toy_optimizer,
        )
        assert result.whatif_calls > 0
        assert result.optimizations > 0
