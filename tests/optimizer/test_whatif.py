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
    """The per-statement IBG cache behind WFIT's candidate maintenance."""

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

    def test_statement_ibg_cached_and_grown(self, toy_stats):
        from repro.optimizer import extract_indices

        optimizer = WhatIfOptimizer(toy_stats)
        query = self._rich_query(toy_stats)
        candidates = sorted(extract_indices(query))
        first = optimizer.statement_ibg(query, frozenset(candidates[:1]))
        again = optimizer.statement_ibg(query, frozenset(candidates[:1]))
        assert again is first
        grown = optimizer.statement_ibg(query, frozenset(candidates))
        assert grown.candidates >= first.candidates

    def test_statement_ibg_enforces_node_cap(self, toy_stats):
        from repro.optimizer import extract_indices

        optimizer = WhatIfOptimizer(toy_stats)
        query = self._rich_query(toy_stats)
        candidates = frozenset(extract_indices(query))
        with pytest.raises(RuntimeError):
            optimizer.statement_ibg(query, candidates, max_nodes=1)

    def test_failed_build_memoized_not_retried(self, toy_stats):
        from repro.optimizer import extract_indices

        optimizer = WhatIfOptimizer(toy_stats)
        query = self._rich_query(toy_stats)
        candidates = frozenset(extract_indices(query))
        with pytest.raises(RuntimeError):
            optimizer.statement_ibg(query, candidates, max_nodes=1)
        spent = optimizer.optimizations, optimizer.whatif_calls
        # The identical retry raises from the failure memo without building
        # (a rebuild would ask what-if questions, even if memoized ones).
        with pytest.raises(RuntimeError):
            optimizer.statement_ibg(query, candidates, max_nodes=1)
        assert (optimizer.optimizations, optimizer.whatif_calls) == spent

    def test_larger_cap_retries_after_failure(self, toy_stats):
        from repro.optimizer import extract_indices

        optimizer = WhatIfOptimizer(toy_stats)
        query = self._rich_query(toy_stats)
        candidates = frozenset(extract_indices(query))
        with pytest.raises(RuntimeError):
            optimizer.statement_ibg(query, candidates, max_nodes=1)
        # A failure at a small cap must not poison builds at a larger cap.
        graph = optimizer.statement_ibg(query, candidates, max_nodes=4096)
        assert graph.node_count >= 1

    def test_ibg_cache_is_bounded(self, toy_stats):
        from repro.optimizer.whatif import _IBG_CACHE_LIMIT

        optimizer = WhatIfOptimizer(toy_stats)
        amount = toy_stats.column_stats(SALES, "amount")
        for k in range(_IBG_CACHE_LIMIT + 10):
            lo = amount.min_value + k  # distinct literals -> distinct statements
            query = (
                select(SALES).where_between("amount", lo, lo + 25).count_star().build()
            )
            optimizer.statement_ibg(query, frozenset({Index(SALES, ("amount",))}))
        assert len(optimizer._ibg_cache) <= _IBG_CACHE_LIMIT


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
