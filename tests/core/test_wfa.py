"""Unit tests for the Work Function Algorithm (Figure 3, Example 4.1)."""

from __future__ import annotations

import random

import pytest

from repro.core import wfa_kernel
from repro.core.wfa import WFA, TransitionCosts
from repro.db import Index

from synth import make_indices, make_synthetic_instance


@pytest.fixture()
def example_41():
    """The exact instance of Example 4.1 / Figure 2."""
    a = Index("db.t", ("c",))
    costs = {
        "q1": {frozenset(): 15.0, frozenset({a}): 5.0},
        "q2": {frozenset(): 20.0, frozenset({a}): 2.0},
        "q3": {frozenset(): 15.0, frozenset({a}): 20.0},
    }
    transitions = TransitionCosts(create={a: 20.0}, drop={a: 0.0})
    wfa = WFA([a], frozenset(), lambda q, X: costs[q][frozenset(X)], transitions)
    return a, wfa


class TestExample41:
    """Golden test: the worked example of the paper, value for value."""

    def test_initial_work_function(self, example_41):
        a, wfa = example_41
        assert wfa.work_value(frozenset()) == 0.0
        assert wfa.work_value({a}) == 20.0

    def test_q1_keeps_empty_recommendation(self, example_41):
        a, wfa = example_41
        rec = wfa.analyze_statement("q1")
        assert rec == frozenset()
        assert wfa.work_value(frozenset()) == 15.0
        assert wfa.work_value({a}) == 25.0

    def test_q2_switches_to_a_by_tiebreak(self, example_41):
        a, wfa = example_41
        wfa.analyze_statement("q1")
        rec = wfa.analyze_statement("q2")
        # Work function values tie at 27; the p[S] condition picks {a}.
        assert wfa.work_value(frozenset()) == 27.0
        assert wfa.work_value({a}) == 27.0
        assert rec == frozenset({a})

    def test_q3_keeps_a_despite_adverse_query(self, example_41):
        a, wfa = example_41
        for statement in ("q1", "q2"):
            wfa.analyze_statement(statement)
        rec = wfa.analyze_statement("q3")
        assert wfa.work_value(frozenset()) == 42.0
        assert wfa.work_value({a}) == 47.0
        scores = wfa.scores()
        assert scores[frozenset()] == 62.0
        assert scores[frozenset({a})] == 47.0
        # The benefit of dropping does not outweigh re-creation cost.
        assert rec == frozenset({a})


class TestWFABasics:
    def test_initial_recommendation_is_initial_config(self):
        indices = make_indices(3)
        wfa = WFA(
            indices,
            {indices[1]},
            lambda q, X: 1.0,
            TransitionCosts(default_create=5.0),
        )
        assert wfa.recommend() == frozenset({indices[1]})

    def test_state_count(self):
        indices = make_indices(4)
        wfa = WFA(indices, frozenset(), lambda q, X: 0.0, TransitionCosts())
        assert wfa.state_count == 16

    def test_rejects_oversized_part(self):
        with pytest.raises(ValueError, match="repartition"):
            WFA(make_indices(21), frozenset(), lambda q, X: 0.0, TransitionCosts())

    def test_work_function_snapshot_roundtrip(self):
        indices = make_indices(2)
        costs = {frozenset(): 9.0}
        wfa = WFA(
            indices,
            frozenset(),
            lambda q, X: 9.0 - 4.0 * len(X),
            TransitionCosts(default_create=3.0, default_drop=1.0),
        )
        wfa.analyze_statement("q")
        clone = WFA(
            indices,
            frozenset(),
            lambda q, X: 9.0 - 4.0 * len(X),
            TransitionCosts(default_create=3.0, default_drop=1.0),
        )
        clone.load_state(wfa.export_state())
        assert clone.recommend() == wfa.recommend()
        for subset, value in wfa.work_function().items():
            assert clone.work_value(subset) == value

    def test_short_warm_start_vector_rejected(self):
        """Regression: a warm start missing configurations used to default
        them to w = 0.0 — an impossible "free" state that corrupts every
        recommendation after a repartition. A vector with fewer values than
        the part has configurations must raise instead."""
        wfa = WFA(make_indices(2), frozenset(), lambda q, X: 1.0, TransitionCosts())
        with pytest.raises(ValueError, match="has 3 values; this part tracks 4"):
            wfa.load_state({
                "w": [3.0, 5.0, 6.0],
                "recommendation_mask": 0,
                "statements_analyzed": 0,
            })

    def test_long_warm_start_vector_rejected(self):
        """A vector laid out for a larger part (one more index) must not be
        silently truncated onto this one."""
        wfa = WFA(make_indices(2), frozenset(), lambda q, X: 1.0, TransitionCosts())
        with pytest.raises(ValueError, match="has 8 values; this part tracks 4"):
            wfa.load_state({
                "w": [3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
                "recommendation_mask": 0,
                "statements_analyzed": 0,
            })

    def test_strong_benefit_triggers_creation(self):
        indices = make_indices(1)
        a = indices[0]
        transitions = TransitionCosts(create={a: 10.0}, drop={a: 1.0})
        wfa = WFA(indices, frozenset(), lambda q, X: 0.0 if X else 20.0, transitions)
        rec = wfa.analyze_statement("q")
        assert rec == frozenset({a})

    def test_weak_benefit_does_not_trigger_creation(self):
        indices = make_indices(1)
        a = indices[0]
        transitions = TransitionCosts(create={a: 100.0}, drop={a: 1.0})
        wfa = WFA(indices, frozenset(), lambda q, X: 19.0 if X else 20.0, transitions)
        rec = wfa.analyze_statement("q")
        assert rec == frozenset()


class TestWorkFunctionInvariants:
    """Properties from the competitive analysis (Appendix A)."""

    def test_work_function_monotone_in_statements(self):
        rng = random.Random(5)
        workload, transitions = make_synthetic_instance(rng, [3], 15)
        wfa = WFA(workload.indices, frozenset(), workload.cost, transitions)
        previous = wfa.work_function()
        for statement in workload.statements:
            wfa.analyze_statement(statement)
            current = wfa.work_function()
            # Lemma A.1: w_{i+1}(S) >= w_i(S) + min-cost >= w_i(S)
            # (costs are positive by construction here).
            for subset, value in current.items():
                assert value >= previous[subset] - 1e-9
            previous = current

    def test_work_function_spread_bounded_by_transition(self):
        """w(S) - w(T) <= δ(T, S): otherwise the path via T beats w(S)."""
        rng = random.Random(6)
        workload, transitions = make_synthetic_instance(rng, [2, 2], 12)
        wfa_parts = [
            WFA(sorted(part), frozenset(), workload.cost, transitions)
            for part in workload.partition
        ]
        for statement in workload.statements:
            for wfa in wfa_parts:
                wfa.analyze_statement(statement)
        for wfa in wfa_parts:
            values = wfa.work_function()
            for s, ws in values.items():
                for t, wt in values.items():
                    assert ws <= wt + transitions.delta(t, s) + 1e-6

    def test_matches_naive_recurrence(self):
        """The O(2^k k) relaxation equals the O(4^k) definition exactly."""
        rng = random.Random(7)
        workload, transitions = make_synthetic_instance(rng, [3], 10)
        indices = workload.indices
        wfa = WFA(indices, frozenset(), workload.cost, transitions)

        def subsets():
            for mask in range(1 << len(indices)):
                yield frozenset(
                    ix for i, ix in enumerate(indices) if mask & (1 << i)
                )

        naive = {s: transitions.delta(frozenset(), s) for s in subsets()}
        for statement in workload.statements:
            wfa.analyze_statement(statement)
            naive = {
                s: min(
                    naive[x] + workload.cost(statement, x) + transitions.delta(x, s)
                    for x in naive
                )
                for s in naive
            }
            for subset, value in naive.items():
                assert wfa.work_value(subset) == pytest.approx(value, abs=1e-9)


def test_prepare_relax_composes_to_analyze():
    """WFA⁺'s two-phase update is exactly analyze_statement."""
    rng = random.Random(3)
    workload, transitions = make_synthetic_instance(rng, [3], 6)
    part = sorted(workload.partition[0])
    whole = WFA(part, frozenset(), workload.cost, transitions)
    split = WFA(part, frozenset(), workload.cost, transitions)
    for statement in workload.statements:
        rec_whole = whole.analyze_statement(statement)
        split.prepare_statement(statement)
        assert split.relax() is None
        assert rec_whole == split.recommend()
        assert whole._kernel.export_w() == split._kernel.export_w()
        assert whole.statements_analyzed == split.statements_analyzed


@pytest.mark.parametrize("backend", wfa_kernel.available_backends())
def test_kernel_buffers_are_per_instance(backend):
    """The buffer-ownership contract of wfa_kernel: no instance aliases
    another's buffers or scratch."""
    indices = make_indices(4)
    transitions = TransitionCosts()
    with wfa_kernel.force_backend(backend):
        a = WFA(indices, frozenset(), lambda q, X: 1.0, transitions)
        b = WFA(indices, frozenset(), lambda q, X: 1.0, transitions)
    ka, kb = a._kernel, b._kernel
    assert ka is not kb
    assert ka.costs is not kb.costs
    if backend == "numpy":
        import numpy as np

        for name in ("_w", "costs", "_base", "_i1", "_i2", "_f1", "_f2", "_f3",
                     "_rec_create", "_rec_drop"):
            assert not np.shares_memory(getattr(ka, name), getattr(kb, name)), name
        for step_a, step_b in zip(ka._low_steps + ka._high_steps,
                                  kb._low_steps + kb._high_steps):
            for view_a, view_b in zip(step_a, step_b):
                assert not np.shares_memory(view_a, view_b)
    else:
        assert ka._w is not kb._w
