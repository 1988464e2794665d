"""Tests for single-table access path enumeration and costing."""

from __future__ import annotations

import pytest

from repro.db import Index
from repro.optimizer.access import AccessCostModel
from repro.optimizer.selectivity import selectivity_by_column
from repro.query.ast import ColumnRef, EqualityPredicate, RangePredicate
from reference import best_path

SALES = "shop.sales"


@pytest.fixture()
def model(toy_stats):
    return AccessCostModel(toy_stats)


def col_sel(stats, *preds):
    return selectivity_by_column(stats, list(preds))


def narrow_range(stats, column, fraction=0.01):
    col = stats.column_stats(SALES, column)
    width = (col.max_value - col.min_value) * fraction
    return RangePredicate(
        ColumnRef(SALES, column), lo=col.min_value, hi=col.min_value + width
    )


class TestTableScan:
    def test_always_available(self, model, toy_stats):
        paths = model.enumerate_paths(SALES, {}, frozenset(), frozenset())
        assert [p.kind for p in paths] == ["table-scan"]
        assert paths[0].cost > 0

    def test_scan_cost_tracks_pages(self, model, toy_stats):
        assert model.table_scan_cost(SALES) >= toy_stats.page_count(SALES)


class TestIndexScan:
    def test_selective_range_prefers_index(self, model, toy_stats):
        pred = narrow_range(toy_stats, "amount", 0.01)
        index = Index(SALES, ("amount",))
        best = best_path(
            model, SALES, col_sel(toy_stats, pred), frozenset({"amount", "sale_id"}),
            frozenset({index}),
        )
        assert best.kind == "index-scan"
        assert best.indexes == (index,)

    def test_unselective_range_prefers_scan(self, model, toy_stats):
        pred = narrow_range(toy_stats, "amount", 0.95)
        index = Index(SALES, ("amount",))
        best = best_path(
            model, SALES, col_sel(toy_stats, pred), frozenset({"amount", "sale_id"}),
            frozenset({index}),
        )
        assert best.kind == "table-scan"

    def test_covering_index_gives_index_only_scan(self, model, toy_stats):
        pred = narrow_range(toy_stats, "amount", 0.05)
        covering = Index(SALES, ("amount",))
        best = best_path(
            model, SALES, col_sel(toy_stats, pred), frozenset({"amount"}),
            frozenset({covering}),
        )
        assert best.kind == "index-only-scan"

    def test_index_only_cheaper_than_fetching(self, model, toy_stats):
        pred = narrow_range(toy_stats, "amount", 0.05)
        index = Index(SALES, ("amount",))
        paths = model.enumerate_paths(
            SALES, col_sel(toy_stats, pred), frozenset({"amount"}),
            frozenset({index}),
        )
        by_kind = {p.kind: p for p in paths}
        assert by_kind["index-only-scan"].cost < by_kind["index-scan"].cost

    def test_matched_prefix_stops_at_range(self, model, toy_stats):
        eq = EqualityPredicate(ColumnRef(SALES, "product_id"), 7)
        rng = narrow_range(toy_stats, "amount", 0.2)
        index = Index(SALES, ("product_id", "amount", "sale_id"))
        matched, sel = model._matched_prefix(index, col_sel(toy_stats, eq, rng))
        assert matched == 2  # eq + range; nothing after the range column

    def test_unmatched_leading_column_blocks_scan(self, model, toy_stats):
        pred = narrow_range(toy_stats, "amount", 0.01)
        index = Index(SALES, ("sale_date", "amount"))
        paths = model.enumerate_paths(
            SALES, col_sel(toy_stats, pred), frozenset({"amount", "sale_id"}),
            frozenset({index}),
        )
        assert all(p.kind == "table-scan" for p in paths)

    def test_monotone_more_indices_never_worse(self, model, toy_stats):
        pred = narrow_range(toy_stats, "amount", 0.03)
        sels = col_sel(toy_stats, pred)
        needed = frozenset({"amount", "sale_id"})
        base = best_path(model, SALES, sels, needed, frozenset()).cost
        one = best_path(
            model, SALES, sels, needed, frozenset({Index(SALES, ("amount",))})
        ).cost
        two = best_path(
            model, SALES, sels, needed,
            frozenset({Index(SALES, ("amount",)), Index(SALES, ("amount", "sale_id"))}),
        ).cost
        assert one <= base
        assert two <= one


class TestIntersection:
    def test_two_moderate_ranges_intersect(self, model, toy_stats):
        p1 = narrow_range(toy_stats, "amount", 0.05)
        p2 = narrow_range(toy_stats, "sale_date", 0.05)
        a = Index(SALES, ("amount",))
        b = Index(SALES, ("sale_date",))
        paths = model.enumerate_paths(
            SALES, col_sel(toy_stats, p1, p2),
            frozenset({"amount", "sale_date", "sale_id"}),
            frozenset({a, b}),
        )
        kinds = {p.kind for p in paths}
        assert "index-intersection" in kinds
        inter = next(p for p in paths if p.kind == "index-intersection")
        singles = [p for p in paths if p.kind == "index-scan"]
        assert inter.cost < min(p.cost for p in singles)

    def test_same_leading_column_not_intersected(self, model, toy_stats):
        p = narrow_range(toy_stats, "amount", 0.05)
        a = Index(SALES, ("amount",))
        b = Index(SALES, ("amount", "sale_id"))
        paths = model.enumerate_paths(
            SALES, col_sel(toy_stats, p), frozenset({"amount"}),
            frozenset({a, b}),
        )
        assert all(p.kind != "index-intersection" for p in paths)


class TestMaintenance:
    def test_key_change_charged(self, model):
        index = Index(SALES, ("amount",))
        assert model.index_maintenance_cost(index, 100.0, key_change=True) > 0

    def test_non_key_update_free(self, model):
        index = Index(SALES, ("amount",))
        assert model.index_maintenance_cost(index, 100.0, key_change=False) == 0.0

    def test_zero_rows_free(self, model):
        index = Index(SALES, ("amount",))
        assert model.index_maintenance_cost(index, 0.0, key_change=True) == 0.0
