"""Tests for the memoizing what-if optimizer facade."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.db import Index
from repro.optimizer import WhatIfOptimizer
from repro.optimizer import whatif as whatif_module
from repro.query import select, update

SALES = "shop.sales"
CUSTOMERS = "shop.customers"


@pytest.fixture()
def query():
    return (
        select(SALES).where_between("amount", 0, 150).count_star().build()
    )


class TestCaching:
    def test_repeat_call_hits_cache(self, toy_stats, query):
        optimizer = WhatIfOptimizer(toy_stats)
        config = frozenset({Index(SALES, ("amount",))})
        first = optimizer.cost(query, config)
        second = optimizer.cost(query, config)
        assert first == second
        assert optimizer.whatif_calls == 2
        assert optimizer.optimizations == 1

    def test_irrelevant_indices_share_cache_entry(self, toy_stats, query):
        optimizer = WhatIfOptimizer(toy_stats)
        config_a = frozenset({Index(CUSTOMERS, ("region",))})
        config_b = frozenset({Index(CUSTOMERS, ("signup_date",))})
        optimizer.cost(query, config_a)
        optimizer.cost(query, config_b)
        # Both reduce to the empty relevant subset.
        assert optimizer.optimizations == 1

    def test_reset_and_clear(self, toy_stats, query):
        optimizer = WhatIfOptimizer(toy_stats)
        optimizer.cost(query, frozenset())
        optimizer.reset_counters()
        assert optimizer.whatif_calls == 0
        assert optimizer.optimizations == 0
        optimizer.clear_cache()
        optimizer.cost(query, frozenset())
        assert optimizer.optimizations == 1


class TestUsedSets:
    def test_used_contains_access_index(self, toy_stats, query):
        optimizer = WhatIfOptimizer(toy_stats)
        index = Index(SALES, ("amount",))
        _, used = optimizer.optimize(query, frozenset({index}))
        assert index in used

    def test_unused_index_not_in_used(self, toy_stats, query):
        optimizer = WhatIfOptimizer(toy_stats)
        useless = Index(SALES, ("sale_date",))
        _, used = optimizer.optimize(query, frozenset({useless}))
        assert useless not in used

    def test_maintenance_index_counts_as_used(self, toy_stats):
        optimizer = WhatIfOptimizer(toy_stats)
        col = toy_stats.column_stats(SALES, "sale_date")
        stmt = (
            update(SALES)
            .set("amount")
            .where_between("sale_date", col.min_value, col.min_value + 30)
            .build()
        )
        index = Index(SALES, ("amount",))
        _, used = optimizer.optimize(stmt, frozenset({index}))
        assert index in used


class TestMaintenanceCache:
    def test_bounded_like_the_statement_memo(self, toy_stats, monkeypatch):
        """maintenance_cost pins no write statement it priced: the charges
        are not memoized (a memo answered 1 lookup in 332 on a default
        WFIT stream), so nothing keeps the statements alive."""
        monkeypatch.setattr(whatif_module, "_STMT_CACHE_LIMIT", 4)
        optimizer = WhatIfOptimizer(toy_stats)
        index = Index(SALES, ("amount",))
        col = toy_stats.column_stats(SALES, "sale_date")
        alive = []
        for k in range(12):
            stmt = (
                update(SALES)
                .set("amount")
                .where_between("sale_date", col.min_value, col.min_value + 10 + k)
                .build()
            )
            charge = optimizer.maintenance_cost(stmt, index)
            assert charge > 0.0
            assert charge == optimizer.cost_model.maintenance_cost(stmt, index)
            assert optimizer.maintenance_cost(stmt, index) == charge
            alive.append(weakref.ref(stmt))
            del stmt
        gc.collect()
        assert sum(ref() is not None for ref in alive) == 0


class TestBenefit:
    def test_positive_for_useful_index(self, toy_stats, query):
        optimizer = WhatIfOptimizer(toy_stats)
        index = Index(SALES, ("amount",))
        assert optimizer.benefit(query, {index}, frozenset()) > 0

    def test_negative_for_update_maintenance(self, toy_stats):
        optimizer = WhatIfOptimizer(toy_stats)
        col = toy_stats.column_stats(SALES, "sale_date")
        stmt = (
            update(SALES)
            .set("amount")
            .where_between("sale_date", col.min_value, col.min_value + 100)
            .build()
        )
        index = Index(SALES, ("amount",))
        assert optimizer.benefit(stmt, {index}, frozenset()) < 0

    def test_explain_does_not_pollute_counters(self, toy_stats, query):
        optimizer = WhatIfOptimizer(toy_stats)
        optimizer.explain(query, frozenset())
        assert optimizer.whatif_calls == 0


class TestStatementIBG:
    """The per-table IBGs behind WFIT's candidate maintenance."""

    def _rich_query(self, toy_stats):
        amount = toy_stats.column_stats(SALES, "amount")
        date = toy_stats.column_stats(SALES, "sale_date")
        return (
            select(SALES)
            .where_between("amount", amount.min_value,
                           amount.min_value + amount.domain_width * 0.05)
            .where_between("sale_date", date.min_value,
                           date.min_value + date.domain_width * 0.05)
            .count_star()
            .build()
        )

    def _join_query(self, toy_stats):
        amount = toy_stats.column_stats(SALES, "amount")
        return (
            select(SALES)
            .join(CUSTOMERS, on=("customer_id", "customer_id"))
            .where_between("amount", amount.min_value,
                           amount.min_value + amount.domain_width * 0.03,
                           table=SALES)
            .where_eq("region", 5, table=CUSTOMERS)
            .build()
        )

    def test_one_graph_per_table_with_candidates(self, toy_stats):
        from repro.optimizer import extract_indices

        optimizer = WhatIfOptimizer(toy_stats)
        query = self._join_query(toy_stats)
        candidates = set(extract_indices(query))
        assert {ix.table for ix in candidates} == {SALES, CUSTOMERS}
        graphs = optimizer.statement_ibg(query, frozenset(candidates))
        assert list(graphs) == sorted([CUSTOMERS, SALES])
        for table, graph in graphs.items():
            assert graph.candidates == frozenset(
                ix for ix in candidates if ix.table == table
            )
        # A table without candidates gets no graph; an irrelevant
        # candidate joins none.
        only_sales = {ix for ix in candidates if ix.table == SALES}
        graphs = optimizer.statement_ibg(
            query, frozenset(only_sales | {Index("shop.products", ("price",))})
        )
        assert list(graphs) == [SALES]
        assert graphs[SALES].candidates == frozenset(only_sales)

    def test_graphs_are_built_fresh_and_not_retained(self, toy_stats):
        from repro.optimizer import extract_indices

        optimizer = WhatIfOptimizer(toy_stats)
        query = self._rich_query(toy_stats)
        candidates = frozenset(extract_indices(query))
        first = optimizer.statement_ibg(query, candidates)[SALES]
        derivations = optimizer.optimizations
        misses = optimizer.cache_stats()["statement_misses"]
        again = optimizer.statement_ibg(query, candidates)[SALES]
        assert again is not first
        assert {node.mask: (node.cost, node.used_mask) for node in again} == {
            node.mask: (node.cost, node.used_mask) for node in first
        }
        # The memo answers every node the first build priced.
        assert optimizer.optimizations == derivations
        assert optimizer.cache_stats()["statement_misses"] == misses
        alive = [weakref.ref(first), weakref.ref(again)]
        del first, again
        gc.collect()
        assert all(ref() is None for ref in alive)

    def test_statement_ibg_enforces_node_cap(self, toy_stats):
        from repro.optimizer import extract_indices

        optimizer = WhatIfOptimizer(toy_stats)
        query = self._rich_query(toy_stats)
        candidates = frozenset(extract_indices(query))
        with pytest.raises(RuntimeError):
            optimizer.statement_ibg(query, candidates, max_nodes=1)

    def test_larger_cap_retries_after_failure(self, toy_stats):
        from repro.optimizer import extract_indices

        optimizer = WhatIfOptimizer(toy_stats)
        query = self._rich_query(toy_stats)
        candidates = frozenset(extract_indices(query))
        with pytest.raises(RuntimeError):
            optimizer.statement_ibg(query, candidates, max_nodes=1)
        # A failure at a small cap must not poison builds at a larger cap.
        graphs = optimizer.statement_ibg(query, candidates, max_nodes=4096)
        assert graphs[SALES].node_count >= 1


class TestPlanTemplates:
    """The batched costing engine behind memo misses (ISSUE 4)."""

    def test_one_build_per_statement(self, toy_stats, query):
        optimizer = WhatIfOptimizer(toy_stats)
        a = Index(SALES, ("amount",))
        b = Index(SALES, ("sale_date",))
        # Candidates registered up front (the WFA/WFIT shape: parts are
        # interned before any costing), so menus never need a rebuild.
        optimizer.mask_universe.encode({a, b})
        for config in (frozenset(), {a}, {b}, {a, b}):
            optimizer.cost(query, frozenset(config))
        stats = optimizer.cache_stats()
        assert stats["template_builds"] == 1
        assert stats["optimizations"] == 1          # one plan derivation total
        assert stats["template_mask_costs"] == 4    # every miss menu-priced
        assert stats["template_hits"] == 3

    def test_universe_growth_triggers_rebuild(self, toy_stats, query):
        optimizer = WhatIfOptimizer(toy_stats)
        optimizer.cost(query, frozenset({Index(SALES, ("amount",))}))
        # A new candidate on the statement's table invalidates the menus.
        optimizer.cost(query, frozenset({Index(SALES, ("sale_date",))}))
        assert optimizer.cache_stats()["template_builds"] == 2
        # …but growth on an unrelated table does not.
        optimizer.cost(
            query,
            frozenset({Index(SALES, ("amount",)),
                       Index(CUSTOMERS, ("region",))}),
        )
        assert optimizer.cache_stats()["template_builds"] == 2

    def test_template_cache_cleared_with_caches(self, toy_stats, query):
        optimizer = WhatIfOptimizer(toy_stats)
        optimizer.cost(query, frozenset())
        optimizer.clear_cache()
        optimizer.cost(query, frozenset())
        assert optimizer.cache_stats()["template_builds"] == 2

    def test_batched_plan_usage_matches_scalar(self, toy_stats):
        from repro.optimizer import extract_indices
        from repro.query import update

        col = toy_stats.column_stats(SALES, "sale_date")
        stmt = (
            update(SALES)
            .set("amount")
            .where_between("sale_date", col.min_value, col.min_value + 30)
            .build()
        )
        optimizer = WhatIfOptimizer(toy_stats)
        universe = optimizer.mask_universe
        full = universe.encode(extract_indices(stmt))
        masks = [full, 0, full & -full]
        batched = optimizer.plan_usage_masks(stmt, masks)
        for mask, (cost, plan_used) in zip(masks, batched):
            scalar_cost, scalar_used = optimizer.plan_usage(
                stmt, universe.decode(mask)
            )
            assert cost == scalar_cost
            assert plan_used == universe.encode(scalar_used)

    def test_cache_stats_exposes_template_counters(self, toy_optimizer):
        stats = toy_optimizer.cache_stats()
        for key in ("template_hits", "template_builds", "template_evictions",
                    "template_hit_rate", "template_mask_costs"):
            assert key in stats
        assert stats["template_hit_rate"] == 0.0
