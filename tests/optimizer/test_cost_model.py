"""Tests for whole-statement costing: monotonicity, joins, updates.

Every case prices through the production path, ``WhatIfOptimizer.cost``
and ``explain``; ``tests/optimizer/test_template_property.py`` checks that
path against the scalar reference search.
"""

from __future__ import annotations

import itertools

import pytest

from repro.db import Index
from repro.optimizer import CostModelConfig, WhatIfOptimizer
from repro.query import delete, select, update
from repro.query.ast import InsertStatement

SALES = "shop.sales"
CUSTOMERS = "shop.customers"


@pytest.fixture()
def optimizer(toy_stats):
    return WhatIfOptimizer(toy_stats)


@pytest.fixture()
def range_query(toy_stats):
    col = toy_stats.column_stats(SALES, "amount")
    width = (col.max_value - col.min_value) * 0.02
    return (
        select(SALES)
        .where_between("amount", col.min_value, col.min_value + width)
        .count_star()
        .build()
    )


@pytest.fixture()
def join_query(toy_stats):
    date = toy_stats.column_stats(SALES, "sale_date")
    width = (date.max_value - date.min_value) * 0.05
    return (
        select(SALES)
        .join(CUSTOMERS, on=("customer_id", "customer_id"))
        .where_between("sale_date", date.min_value, date.min_value + width,
                       table=SALES)
        .where_eq("region", 3, table=CUSTOMERS)
        .count_star()
        .build()
    )


class TestSelectCosting:
    def test_index_reduces_cost(self, optimizer, range_query):
        empty = optimizer.cost(range_query, frozenset())
        indexed = optimizer.cost(
            range_query, frozenset({Index(SALES, ("amount",))})
        )
        assert indexed < empty

    def test_irrelevant_index_is_noop(self, optimizer, range_query):
        empty = optimizer.cost(range_query, frozenset())
        other = optimizer.cost(
            range_query, frozenset({Index(CUSTOMERS, ("region",))})
        )
        assert other == pytest.approx(empty)

    def test_query_cost_monotone_in_config(self, optimizer, range_query):
        """Adding indices never increases a (read-only) query's cost."""
        indices = [
            Index(SALES, ("amount",)),
            Index(SALES, ("amount", "sale_date")),
            Index(SALES, ("sale_date",)),
        ]
        for r in range(len(indices)):
            for combo in itertools.combinations(indices, r):
                base = optimizer.cost(range_query, frozenset(combo))
                for extra in indices:
                    bigger = optimizer.cost(
                        range_query, frozenset(combo) | {extra}
                    )
                    assert bigger <= base + 1e-9

    def test_join_query_uses_both_tables(self, optimizer, join_query):
        plan = optimizer.explain(join_query, frozenset())
        tables = {t for t, _ in plan.access_paths}
        assert tables == {SALES, CUSTOMERS}
        assert len(plan.join_steps) == 1
        assert plan.join_steps[0].method == "hash"

    def test_join_additivity_under_hash_joins(self, optimizer, join_query):
        """Eq (2.1): with hash joins only, per-table benefits are additive."""
        sales_ix = Index(SALES, ("sale_date",))
        cust_ix = Index(CUSTOMERS, ("region",))
        c_empty = optimizer.cost(join_query, frozenset())
        c_s = optimizer.cost(join_query, frozenset({sales_ix}))
        c_c = optimizer.cost(join_query, frozenset({cust_ix}))
        c_both = optimizer.cost(join_query, frozenset({sales_ix, cust_ix}))
        assert c_both == pytest.approx(c_s + c_c - c_empty, rel=1e-9)

    def test_order_by_sort_avoided_by_index(self, optimizer, toy_stats):
        date = toy_stats.column_stats(SALES, "sale_date")
        width = (date.max_value - date.min_value) * 0.2
        query = (
            select(SALES)
            .where_between("sale_date", date.min_value, date.min_value + width)
            .project("sale_date")
            .order_by("sale_date")
            .build()
        )
        no_index = optimizer.explain(query, frozenset())
        assert no_index.sort_cost > 0
        indexed = optimizer.explain(query, frozenset({Index(SALES, ("sale_date",))}))
        assert indexed.sort_cost == 0.0


class TestInljMode:
    @pytest.fixture()
    def lookup_join_query(self):
        """Tiny filtered outer (customers) joining into the big sales table."""
        return (
            select(CUSTOMERS)
            .join(SALES, on=("customer_id", "customer_id"))
            .where_eq("region", 3, table=CUSTOMERS)
            .count_star()
            .build()
        )

    def test_inlj_chosen_for_selective_outer(self, toy_stats, lookup_join_query):
        optimizer = WhatIfOptimizer(toy_stats, CostModelConfig(enable_inlj=True))
        join_ix = Index(SALES, ("customer_id",))
        plan = optimizer.explain(lookup_join_query, frozenset({join_ix}))
        methods = {step.method for step in plan.join_steps}
        assert "index-nested-loop" in methods
        # The inner table is reached through lookups, not a scan.
        assert SALES not in {t for t, _ in plan.access_paths}

    def test_inlj_never_worse_than_hash(self, toy_stats, lookup_join_query):
        plain = WhatIfOptimizer(toy_stats)
        inlj = WhatIfOptimizer(toy_stats, CostModelConfig(enable_inlj=True))
        config = frozenset({Index(SALES, ("customer_id",))})
        assert inlj.cost(lookup_join_query, config) <= (
            plain.cost(lookup_join_query, config) + 1e-9
        )


class TestUpdateCosting:
    def test_update_charges_maintenance_on_set_column_index(self, optimizer, toy_stats):
        stmt = (
            update(SALES)
            .set("amount")
            .where_between("sale_date", 17000, 17010)
            .build()
        )
        tax_ix = Index(SALES, ("amount",))
        base = optimizer.cost(stmt, frozenset())
        with_ix = optimizer.cost(stmt, frozenset({tax_ix}))
        assert with_ix > base

    def test_update_where_index_helps(self, optimizer, toy_stats):
        stmt = (
            update(SALES)
            .set("amount")
            .where_between("sale_date", 17000, 17010)
            .build()
        )
        where_ix = Index(SALES, ("sale_date",))
        base = optimizer.cost(stmt, frozenset())
        with_ix = optimizer.cost(stmt, frozenset({where_ix}))
        assert with_ix < base

    def test_update_never_uses_index_only_scan(self, optimizer):
        stmt = (
            update(SALES)
            .set("amount")
            .where_between("sale_date", 17000, 17100)
            .build()
        )
        config = frozenset({Index(SALES, ("sale_date", "amount"))})
        plan = optimizer.explain(stmt, config)
        kinds = {path.kind for _, path in plan.access_paths}
        assert "index-only-scan" not in kinds

    def test_insert_charges_all_indices(self, optimizer):
        stmt = InsertStatement(SALES, row_count=1000)
        none = optimizer.cost(stmt, frozenset())
        one = optimizer.cost(stmt, frozenset({Index(SALES, ("amount",))}))
        two = optimizer.cost(stmt, frozenset({
            Index(SALES, ("amount",)), Index(SALES, ("sale_date",))
        }))
        assert none < one < two

    def test_insert_cost_scales_with_rows(self, optimizer):
        config = frozenset({Index(SALES, ("amount",))})
        small = optimizer.cost(InsertStatement(SALES, row_count=10), config)
        large = optimizer.cost(InsertStatement(SALES, row_count=10_000), config)
        assert large > 100 * small

    def test_delete_charges_all_indices(self, optimizer):
        stmt = delete(SALES).where_between("sale_date", 17000, 17010).build()
        base = optimizer.cost(stmt, frozenset())
        config = frozenset({Index(SALES, ("amount",))})
        assert optimizer.cost(stmt, config) > base

    def test_plan_describe_smoke(self, optimizer, join_query):
        text = optimizer.explain(join_query, frozenset()).describe()
        assert "total=" in text
        assert "access" in text
