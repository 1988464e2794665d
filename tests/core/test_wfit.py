"""Tests for WFIT: fixed/auto modes, repartitioning, candidate maintenance."""

from __future__ import annotations

import pytest

from repro.core.wfit import WFIT
from repro.db import Index, StatsTransitionCosts
from repro.query import select, update
from statements import SIX_TABLE_JOIN_SQL, UNKNOWN_TABLE_SQL

SALES = "shop.sales"
CUSTOMERS = "shop.customers"


@pytest.fixture()
def env(toy_optimizer, toy_stats):
    return toy_optimizer, StatsTransitionCosts(toy_stats), toy_stats


def narrow(stats, table, column, fraction=0.02, offset=0.0):
    col = stats.column_stats(table, column)
    lo = col.min_value + col.domain_width * offset
    return lo, lo + col.domain_width * fraction


class TestFixedMode:
    def test_requires_initial_config_in_partition(self, env):
        optimizer, transitions, _ = env
        a = Index(SALES, ("amount",))
        b = Index(SALES, ("sale_date",))
        with pytest.raises(ValueError, match="outside fixed partition"):
            WFIT(
                optimizer, transitions,
                initial_config={b},
                fixed_partition=[{a}],
            )

    def test_fixed_mode_never_repartitions(self, env):
        optimizer, transitions, stats = env
        a = Index(SALES, ("amount",))
        tuner = WFIT(optimizer, transitions, fixed_partition=[{a}])
        lo, hi = narrow(stats, SALES, "amount")
        query = select(SALES).where_between("amount", lo, hi).build()
        for _ in range(5):
            tuner.analyze_statement(query)
        assert tuner.repartition_count == 0
        assert tuner.partition == (frozenset({a}),)

    def test_recommends_beneficial_index(self, env):
        optimizer, transitions, stats = env
        a = Index(SALES, ("amount",))
        tuner = WFIT(optimizer, transitions, fixed_partition=[{a}])
        lo, hi = narrow(stats, SALES, "amount")
        query = select(SALES).where_between("amount", lo, hi).build()
        for _ in range(60):
            tuner.analyze_statement(query)
        assert a in tuner.recommend()


class TestAutoMode:
    def test_universe_grows_with_statements(self, env):
        optimizer, transitions, stats = env
        tuner = WFIT(optimizer, transitions, idx_cnt=10, state_cnt=64)
        lo, hi = narrow(stats, SALES, "amount")
        tuner.analyze_statement(
            select(SALES).where_between("amount", lo, hi).build()
        )
        assert Index(SALES, ("amount",)) in tuner.universe
        lo2, hi2 = narrow(stats, CUSTOMERS, "lifetime_value")
        tuner.analyze_statement(
            select(CUSTOMERS).where_between("lifetime_value", lo2, hi2).build()
        )
        assert any(ix.table == CUSTOMERS for ix in tuner.universe)

    def test_idx_cnt_bound_respected(self, env):
        optimizer, transitions, stats = env
        tuner = WFIT(optimizer, transitions, idx_cnt=3, state_cnt=64)
        for column, table in (
            ("amount", SALES), ("sale_date", SALES), ("product_id", SALES),
            ("lifetime_value", CUSTOMERS), ("signup_date", CUSTOMERS),
        ):
            lo, hi = narrow(stats, table, column)
            tuner.analyze_statement(
                select(table).where_between(column, lo, hi).build()
            )
        assert len(tuner.candidates) <= 3

    def test_state_cnt_bound_respected(self, env):
        optimizer, transitions, stats = env
        tuner = WFIT(optimizer, transitions, idx_cnt=12, state_cnt=40)
        lo, hi = narrow(stats, SALES, "amount")
        lo2, hi2 = narrow(stats, SALES, "sale_date")
        query = (
            select(SALES)
            .where_between("amount", lo, hi)
            .where_between("sale_date", lo2, hi2)
            .build()
        )
        for _ in range(10):
            tuner.analyze_statement(query)
        assert tuner.tracked_states <= 40

    def test_repartition_preserves_recommendation(self, env):
        """Repartitioning must never silently change the recommendation."""
        optimizer, transitions, stats = env
        tuner = WFIT(optimizer, transitions, idx_cnt=10, state_cnt=128)
        lo, hi = narrow(stats, SALES, "amount")
        query = select(SALES).where_between("amount", lo, hi).build()
        for _ in range(40):
            before = tuner.recommend()
            parts_before = tuner.partition
            tuner.analyze_statement(query)
            if tuner.partition != parts_before:
                # the repartition itself kept currRec intact; any change
                # came from the subsequent WFA analysis
                assert tuner.recommend() >= before - tuner.candidates

    def test_repartition_warm_start_covers_every_configuration(self, env):
        """Regression for the warm-start default-zero bug: WFA now rejects
        incomplete work-function snapshots, so every repartition must hand
        each new part a *complete* snapshot — and the warm-started values
        must satisfy the work-function spread bound (no configuration may
        look reachable for free the way a silently defaulted 0.0 did)."""
        optimizer, transitions, stats = env
        tuner = WFIT(optimizer, transitions, idx_cnt=10, state_cnt=128)
        lo, hi = narrow(stats, SALES, "amount")
        lo2, hi2 = narrow(stats, SALES, "sale_date")
        queries = [
            select(SALES).where_between("amount", lo, hi).build(),
            select(SALES).where_between("sale_date", lo2, hi2).build(),
            select(CUSTOMERS).where_between(
                "region", *narrow(stats, CUSTOMERS, "region", 0.1)
            ).build(),
        ]
        for step in range(30):
            # Raises ValueError inside _repartition if any snapshot came
            # out incomplete.
            tuner.analyze_statement(queries[step % len(queries)])
        assert tuner.repartition_count > 0
        for instance in tuner._instances:
            values = instance.work_function()
            for s, ws in values.items():
                for t, wt in values.items():
                    assert ws <= wt + transitions.delta(t, s) + 1e-6

    def test_assume_independence_singletons(self, env):
        optimizer, transitions, stats = env
        tuner = WFIT(
            optimizer, transitions, idx_cnt=8, state_cnt=64,
            assume_independence=True,
        )
        lo, hi = narrow(stats, SALES, "amount")
        lo2, hi2 = narrow(stats, SALES, "sale_date")
        query = (
            select(SALES)
            .where_between("amount", lo, hi)
            .where_between("sale_date", lo2, hi2)
            .build()
        )
        for _ in range(5):
            tuner.analyze_statement(query)
        assert all(len(part) == 1 for part in tuner.partition)

    def test_interacting_indices_grouped(self, env):
        optimizer, transitions, stats = env
        tuner = WFIT(
            optimizer, transitions, idx_cnt=8, state_cnt=128,
            partition_refresh_period=1,
        )
        lo, hi = narrow(stats, SALES, "amount", 0.05)
        lo2, hi2 = narrow(stats, SALES, "sale_date", 0.05)
        query = (
            select(SALES)
            .where_between("amount", lo, hi)
            .where_between("sale_date", lo2, hi2)
            .count_star()
            .build()
        )
        for _ in range(5):
            tuner.analyze_statement(query)
        a = Index(SALES, ("amount",))
        b = Index(SALES, ("sale_date",))
        by_index = {ix: part for part in tuner.partition for ix in part}
        if a in by_index and b in by_index:
            assert by_index[a] == by_index[b], (
                "intersecting indices interact and must share a part"
            )

    def test_materialized_indices_survive_candidate_churn(self, env):
        optimizer, transitions, stats = env
        tuner = WFIT(optimizer, transitions, idx_cnt=4, state_cnt=64)
        lo, hi = narrow(stats, SALES, "amount")
        query = select(SALES).where_between("amount", lo, hi).build()
        for _ in range(60):
            tuner.analyze_statement(query)
        recommended = tuner.recommend()
        assert recommended, "expected a materialized index by now"
        # Flood with statements on other columns; the materialized index
        # must stay monitored (M ⊆ D, Figure 6 line 4).
        for offset in range(8):
            lo2, hi2 = narrow(stats, CUSTOMERS, "lifetime_value", 0.02, offset * 0.1)
            tuner.analyze_statement(
                select(CUSTOMERS).where_between("lifetime_value", lo2, hi2).build()
            )
        assert recommended <= tuner.candidates

    def test_feedback_on_unknown_index_lands_in_universe(self, env):
        optimizer, transitions, _ = env
        tuner = WFIT(optimizer, transitions, idx_cnt=8, state_cnt=64)
        stranger = Index(SALES, ("product_id",))
        tuner.feedback({stranger}, frozenset())
        assert stranger in tuner.universe

    def test_invalid_refresh_period(self, env):
        optimizer, transitions, _ = env
        with pytest.raises(ValueError):
            WFIT(optimizer, transitions, partition_refresh_period=0)

    def test_infeasible_state_cnt_rejected_before_first_statement(self, env):
        """Regression: idx_cnt=40 with state_cnt=64 used to construct
        fine and then raise from choosePartition inside analyze_statement,
        after the statement counter had advanced."""
        optimizer, transitions, _ = env
        with pytest.raises(ValueError, match="stateCnt=64 cannot hold 40"):
            WFIT(optimizer, transitions, idx_cnt=40, state_cnt=64)
        # |S0| counts when it exceeds idx_cnt: all of S0 stays monitored.
        initial = {Index(SALES, (column,)) for column in
                   ("amount", "sale_date", "product_id", "customer_id", "sale_id")}
        with pytest.raises(ValueError, match="stateCnt=8 cannot hold 5"):
            WFIT(optimizer, transitions, initial_config=initial,
                 idx_cnt=2, state_cnt=8)
        WFIT(optimizer, transitions, initial_config=initial,
             idx_cnt=2, state_cnt=10)

    @pytest.mark.parametrize("idx_cnt,state_cnt", [(40, 500), (12, 40), (40, 80)])
    def test_feasible_state_cnt_accepted(self, env, idx_cnt, state_cnt):
        optimizer, transitions, stats = env
        tuner = WFIT(optimizer, transitions, idx_cnt=idx_cnt, state_cnt=state_cnt)
        lo, hi = narrow(stats, SALES, "amount")
        tuner.analyze_statement(select(SALES).where_between("amount", lo, hi).build())
        assert tuner.statements_analyzed == 1

    def test_state_cnt_check_is_auto_mode_only(self, env):
        """Fixed partitions and WFIT-IND run no partition search."""
        optimizer, transitions, _ = env
        WFIT(optimizer, transitions, idx_cnt=40, state_cnt=64,
             assume_independence=True)
        WFIT(optimizer, transitions, idx_cnt=40, state_cnt=2,
             fixed_partition=[{Index(SALES, ("amount",))}])


class TestWfitFeedback:
    def test_consistency_and_recovery(self, env):
        optimizer, transitions, stats = env
        a = Index(SALES, ("amount",))
        tuner = WFIT(optimizer, transitions, fixed_partition=[{a}])
        lo, hi = narrow(stats, SALES, "amount")
        query = select(SALES).where_between("amount", lo, hi).build()
        for _ in range(60):
            tuner.analyze_statement(query)
        assert a in tuner.recommend()
        # Negative vote is honored immediately...
        assert a not in tuner.feedback(frozenset(), {a})
        # ...but the workload eventually overrides it.
        for _ in range(120):
            tuner.analyze_statement(query)
            if a in tuner.recommend():
                break
        assert a in tuner.recommend()

    def test_notify_materialized_is_feedback(self, env):
        optimizer, transitions, _ = env
        a = Index(SALES, ("amount",))
        b = Index(SALES, ("sale_date",))
        tuner = WFIT(optimizer, transitions, fixed_partition=[{a}, {b}])
        rec = tuner.notify_materialized(created={a}, dropped={b})
        assert a in rec and b not in rec


class TestAtomicAnalysis:
    """A statement the optimizer cannot price raises and leaves the tuner
    exactly as it was: count, universe and exported state."""

    @pytest.fixture()
    def stream(self, bench_catalog):
        from repro.workload import generate_workload, scaled_phases

        catalog, stats = bench_catalog
        return stats, generate_workload(
            catalog, stats, scaled_phases(8), seed=3
        ).statements[:60]

    @staticmethod
    def _assert_rejected_unchanged(tuner):
        from repro.db.schema import SchemaError
        from repro.query.parser import parse_statement

        before = (
            tuner.statements_analyzed, tuner.universe, tuner.export_state()
        )
        with pytest.raises(SchemaError):
            tuner.analyze_statement(parse_statement(UNKNOWN_TABLE_SQL))
        after = (
            tuner.statements_analyzed, tuner.universe, tuner.export_state()
        )
        assert after == before

    def test_default_tuner_unchanged_by_unknown_table(self, stream):
        from repro.optimizer import WhatIfOptimizer

        stats, statements = stream
        tuner = WFIT(WhatIfOptimizer(stats), StatsTransitionCosts(stats))
        tuner.analyze_statement(statements[0])
        self._assert_rejected_unchanged(tuner)
        assert tuner.statements_analyzed == 1

    def test_fixed_partition_tuner_unchanged_by_unknown_table(self, stream):
        from repro.optimizer import WhatIfOptimizer

        stats, statements = stream
        part = frozenset({
            Index("tpch.lineitem", ("l_shipdate",)),
            Index("tpch.lineitem", ("l_quantity",)),
        })
        tuner = WFIT(
            WhatIfOptimizer(stats), StatsTransitionCosts(stats),
            fixed_partition=[part],
        )
        tuner.analyze_statement(statements[0])
        self._assert_rejected_unchanged(tuner)
        assert tuner.statements_analyzed == 1

    def test_rejected_statements_leave_no_trace_in_the_stream(self, stream):
        """Meeting the bad statement at positions 5 and 30 of 60 changes
        nothing: every recommendation and the final state equal those of
        a tuner that never saw it."""
        from repro.db.schema import SchemaError
        from repro.optimizer import WhatIfOptimizer
        from repro.query.parser import parse_statement

        stats, statements = stream
        bad = parse_statement(UNKNOWN_TABLE_SQL)
        clean = WFIT(WhatIfOptimizer(stats), StatsTransitionCosts(stats))
        hit = WFIT(WhatIfOptimizer(stats), StatsTransitionCosts(stats))
        for position, statement in enumerate(statements):
            if position in (5, 30):
                with pytest.raises(SchemaError):
                    hit.analyze_statement(bad)
            assert hit.analyze_statement(statement) == clean.analyze_statement(
                statement
            )
        assert hit.statements_analyzed == clean.statements_analyzed == 60
        assert hit.export_state() == clean.export_state()

    def test_six_table_join_is_analyzed(self):
        from repro.db import build_catalog
        from repro.optimizer import WhatIfOptimizer, extract_indices
        from repro.query.parser import parse_statement

        _, stats = build_catalog(scale=0.05)
        optimizer = WhatIfOptimizer(stats)
        tuner = WFIT(optimizer, StatsTransitionCosts(stats))
        statement = parse_statement(SIX_TABLE_JOIN_SQL)
        tuner.analyze_statement(statement)
        assert tuner.statements_analyzed == 1
        graphs = optimizer.statement_ibg(
            statement, frozenset(extract_indices(statement))
        )
        assert sorted(graphs) == sorted(statement.tables_referenced())
        assert sum(graph.node_count for graph in graphs.values()) == 31
