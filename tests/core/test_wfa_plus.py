"""WFA⁺ tests, including the Theorem 4.2 equivalence property."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.wfa import WFA, TransitionCosts
from repro.core.wfa_plus import WFAPlus, validate_partition
from repro.db import Index

from synth import make_indices, make_synthetic_instance


class TestValidatePartition:
    def test_rejects_overlap(self):
        a, b = make_indices(2)
        with pytest.raises(ValueError, match="overlap"):
            validate_partition([{a, b}, {b}])

    def test_rejects_empty_part(self):
        with pytest.raises(ValueError, match="empty"):
            validate_partition([set()])

    def test_normalizes(self):
        a, b = make_indices(2)
        parts = validate_partition([{a}, {b}])
        assert parts == (frozenset({a}), frozenset({b}))


class TestWFAPlusBasics:
    def test_state_count_is_sum_of_parts(self):
        indices = make_indices(6)
        partition = [set(indices[:3]), set(indices[3:5]), {indices[5]}]
        plus = WFAPlus(partition, frozenset(), lambda q, X: 0.0, TransitionCosts())
        assert plus.state_count == 8 + 4 + 2
        assert plus.max_part_size == 3

    def test_rejects_initial_outside_candidates(self):
        indices = make_indices(3)
        with pytest.raises(ValueError, match="non-candidate"):
            WFAPlus(
                [set(indices[:2])],
                {indices[2]},
                lambda q, X: 0.0,
                TransitionCosts(),
            )

    def test_recommendation_unions_parts(self):
        rng = random.Random(3)
        workload, transitions = make_synthetic_instance(rng, [2, 2], 8)
        plus = WFAPlus(workload.partition, frozenset(), workload.cost, transitions)
        for statement in workload.statements:
            plus.analyze_statement(statement)
        per_part = [instance.recommend() for instance in plus.instances]
        assert plus.recommend() == frozenset().union(*per_part)


class TestTheorem42Equivalence:
    """WFA⁺ on a stable partition ≡ monolithic WFA on the union (Thm 4.2)."""

    def _check_instance(self, seed: int, part_sizes, n_statements: int) -> None:
        rng = random.Random(seed)
        workload, transitions = make_synthetic_instance(
            rng, part_sizes, n_statements
        )
        joint = WFA(workload.indices, frozenset(), workload.cost, transitions)
        plus = WFAPlus(workload.partition, frozenset(), workload.cost, transitions)
        for n, statement in enumerate(workload.statements):
            joint_rec = joint.analyze_statement(statement)
            plus_rec = plus.analyze_statement(statement)
            assert joint_rec == plus_rec, (
                f"seed={seed} statement={n}: WFA={sorted(i.name for i in joint_rec)} "
                f"WFA+={sorted(i.name for i in plus_rec)}"
            )

    @pytest.mark.parametrize("seed", range(8))
    def test_two_parts(self, seed):
        self._check_instance(seed, [2, 2], 12)

    @pytest.mark.parametrize("seed", range(8, 12))
    def test_uneven_parts(self, seed):
        self._check_instance(seed, [3, 1, 2], 10)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        sizes=st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3),
        n=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_equivalence_property(self, seed, sizes, n):
        self._check_instance(seed, sizes, n)


class TestLemmaB1:
    """w_n(S) = Σ_k w^k_n(S ∩ Ck) − (K−1)·Σ cost(q_i, ∅) (Lemma B.1)."""

    def test_work_function_decomposition(self):
        rng = random.Random(11)
        workload, transitions = make_synthetic_instance(rng, [2, 2], 9)
        joint = WFA(workload.indices, frozenset(), workload.cost, transitions)
        plus = WFAPlus(workload.partition, frozenset(), workload.cost, transitions)
        empty_total = 0.0
        for statement in workload.statements:
            joint.analyze_statement(statement)
            plus.analyze_statement(statement)
            empty_total += workload.cost(statement, frozenset())
            k = len(workload.partition)
            for subset, value in joint.work_function().items():
                decomposed = sum(
                    instance.work_value(subset & part)
                    for instance, part in zip(plus.instances, workload.partition)
                )
                assert value == pytest.approx(
                    decomposed - (k - 1) * empty_total, rel=1e-9
                )


class TestBinding:
    def test_unknown_column_leaves_every_part_unchanged(self, bench_stats):
        """The what-if optimizer binds the statement before the first
        part's costs are fetched, so no part relaxes or counts it."""
        from repro.db import StatsTransitionCosts
        from repro.db.schema import SchemaError
        from repro.optimizer import WhatIfOptimizer
        from repro.query.parser import parse_statement
        from statements import UNKNOWN_COLUMN_SQL

        optimizer = WhatIfOptimizer(bench_stats)
        partition = [
            {Index("tpch.lineitem", ("l_quantity",)),
             Index("tpch.lineitem", ("l_shipdate",))},
            {Index("tpch.orders", ("o_orderdate",))},
        ]
        plus = WFAPlus(
            partition, frozenset(), optimizer.cost,
            StatsTransitionCosts(bench_stats),
        )
        plus.analyze_statement(parse_statement(
            "SELECT l.l_orderkey FROM tpch.lineitem l WHERE l.l_quantity = 3"
        ))

        def state():
            return plus.statements_analyzed, [
                (part.export_state(), part.statements_analyzed)
                for part in plus.instances
            ]

        before = state()
        with pytest.raises(SchemaError, match="nosuch"):
            plus.analyze_statement(parse_statement(UNKNOWN_COLUMN_SQL))
        assert state() == before
