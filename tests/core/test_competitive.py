"""Competitive-ratio sanity checks for Theorems 4.1 and 4.3.

The theorems bound worst-case behaviour:
``totWork(WFA) ≤ (2^{|C|+1} − 1) · totWork(OPT) + α`` with α independent of
the workload. We cannot test α directly, but on random instances we verify a
concrete bound with α instantiated from the proof's ingredients (a small
multiple of the maximum transition cost µ), and we verify the ratio is
rarely anywhere near the bound — matching the paper's observation that
average-case performance is far better than worst case.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.driver import run_online
from repro.core.wfa import WFA
from repro.core.wfa_plus import WFAPlus

from reference import brute_force_opt
from synth import make_synthetic_instance


def _max_transition(workload, transitions) -> float:
    full = frozenset(workload.indices)
    return max(
        transitions.delta(frozenset(), full),
        transitions.delta(full, frozenset()),
    )


def _run_wfa(workload, transitions) -> float:
    wfa = WFA(workload.indices, frozenset(), workload.cost, transitions)
    result = run_online(wfa, workload.statements, workload.cost, transitions)
    return result.total_work


class TestTheorem41Bound:
    @pytest.mark.parametrize("seed", range(12))
    def test_bound_on_random_instances(self, seed):
        rng = random.Random(seed)
        workload, transitions = make_synthetic_instance(rng, [2], 10)
        total = _run_wfa(workload, transitions)
        opt = brute_force_opt(
            workload.statements,
            set(workload.indices),
            frozenset(),
            workload.cost,
            transitions,
        ).total_work
        c = len(workload.indices)
        ratio_bound = 2 ** (c + 1) - 1
        alpha = 2 ** (c + 2) * _max_transition(workload, transitions)
        assert total <= ratio_bound * opt + alpha

    @given(seed=st.integers(min_value=0, max_value=99_999))
    @settings(max_examples=30, deadline=None)
    def test_bound_property(self, seed):
        rng = random.Random(seed)
        workload, transitions = make_synthetic_instance(rng, [3], 8)
        total = _run_wfa(workload, transitions)
        opt = brute_force_opt(
            workload.statements,
            set(workload.indices),
            frozenset(),
            workload.cost,
            transitions,
        ).total_work
        c = len(workload.indices)
        assert total <= (2 ** (c + 1) - 1) * opt + 2 ** (c + 2) * _max_transition(
            workload, transitions
        )


class TestTheorem43Bound:
    """WFA⁺'s bound uses c_max, not |C| — much tighter for partitioned sets."""

    @pytest.mark.parametrize("seed", range(8))
    def test_partitioned_bound(self, seed):
        rng = random.Random(1000 + seed)
        workload, transitions = make_synthetic_instance(rng, [2, 2], 10)
        plus = WFAPlus(workload.partition, frozenset(), workload.cost, transitions)
        result = run_online(plus, workload.statements, workload.cost, transitions)
        opt = brute_force_opt(
            workload.statements,
            set(workload.indices),
            frozenset(),
            workload.cost,
            transitions,
        ).total_work
        c_max = max(len(p) for p in workload.partition)
        alpha = len(workload.partition) * 2 ** (c_max + 2) * _max_transition(
            workload, transitions
        )
        assert result.total_work <= (2 ** (c_max + 1) - 1) * opt + alpha

    def test_average_case_much_better_than_bound(self):
        """§6.2: empirical performance is far from the worst-case bound."""
        ratios = []
        for seed in range(10):
            rng = random.Random(2000 + seed)
            workload, transitions = make_synthetic_instance(rng, [2, 2], 20)
            plus = WFAPlus(
                workload.partition, frozenset(), workload.cost, transitions
            )
            result = run_online(
                plus, workload.statements, workload.cost, transitions
            )
            opt = brute_force_opt(
                workload.statements,
                set(workload.indices),
                frozenset(),
                workload.cost,
                transitions,
            ).total_work
            if opt > 0:
                ratios.append(result.total_work / opt)
        c_max = 2
        bound = 2 ** (c_max + 1) - 1  # = 7
        assert sum(ratios) / len(ratios) < bound / 2
