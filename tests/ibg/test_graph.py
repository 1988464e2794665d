"""Tests for Index Benefit Graph construction and lookups."""

from __future__ import annotations

import itertools

import pytest

from repro.db import Index
from repro.ibg.graph import build_ibg
from repro.optimizer import WhatIfOptimizer, extract_indices
from repro.query import select, update

SALES = "shop.sales"


@pytest.fixture()
def query(toy_stats):
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


class TestIBGConstruction:
    def test_costs_match_whatif_for_every_subset(self, toy_optimizer, query):
        """The core IBG guarantee: cost(X) for all X ⊆ U from few nodes."""
        candidates = extract_indices(query)
        ibg = build_ibg(toy_optimizer, query, candidates)
        ordered = sorted(candidates)
        project = toy_optimizer.mask_universe.project
        for r in range(len(ordered) + 1):
            for combo in itertools.combinations(ordered, r):
                subset = frozenset(combo)
                assert ibg.cost_mask(project(subset)) == pytest.approx(
                    toy_optimizer.cost(query, subset), rel=1e-12
                )

    def test_far_fewer_nodes_than_subsets(self, toy_optimizer, query):
        candidates = extract_indices(query)
        ibg = build_ibg(toy_optimizer, query, candidates)
        assert ibg.node_count < 2 ** len(candidates)

    def test_root_is_relevant_subset(self, toy_optimizer, query):
        candidates = set(extract_indices(query))
        candidates.add(Index("shop.customers", ("region",)))  # irrelevant
        ibg = build_ibg(toy_optimizer, query, frozenset(candidates))
        assert all(ix.table == SALES for ix in ibg.candidates)

    def test_used_subset_of_queried_config(self, toy_optimizer, query):
        candidates = extract_indices(query)
        ibg = build_ibg(toy_optimizer, query, candidates)
        some = toy_optimizer.mask_universe.project(sorted(candidates)[:2])
        assert ibg.used_mask(some) & ~some == 0

    def test_empty_cost(self, toy_optimizer, query):
        candidates = extract_indices(query)
        ibg = build_ibg(toy_optimizer, query, candidates)
        assert ibg.empty_cost == pytest.approx(
            toy_optimizer.cost(query, frozenset())
        )

    def test_benefit_from_graph(self, toy_optimizer, query):
        candidates = extract_indices(query)
        ibg = build_ibg(toy_optimizer, query, candidates)
        index = sorted(candidates)[0]
        expected = toy_optimizer.benefit(query, {index}, frozenset())
        bit = toy_optimizer.mask_universe.bit_of(index)
        assert ibg.cost_mask(0) - ibg.cost_mask(bit) == pytest.approx(expected)

    def test_update_statement_ibg(self, toy_optimizer, toy_stats):
        """Maintenance-paying indices appear in used sets, keeping lookups
        exact even when cost increases with more indices."""
        date = toy_stats.column_stats(SALES, "sale_date")
        stmt = (
            update(SALES)
            .set("amount")
            .where_between("sale_date", date.min_value, date.min_value + 30)
            .build()
        )
        amount_ix = Index(SALES, ("amount",))
        date_ix = Index(SALES, ("sale_date",))
        candidates = frozenset({amount_ix, date_ix})
        ibg = build_ibg(toy_optimizer, stmt, candidates)
        project = toy_optimizer.mask_universe.project
        for subset in (frozenset(), {amount_ix}, {date_ix}, candidates):
            assert ibg.cost_mask(project(subset)) == pytest.approx(
                toy_optimizer.cost(stmt, frozenset(subset))
            )

    def test_node_cap_enforced(self, toy_optimizer, query):
        candidates = extract_indices(query)
        with pytest.raises(RuntimeError, match="exceeded"):
            build_ibg(toy_optimizer, query, candidates, max_nodes=1)

    def test_all_used_indices_cached(self, toy_optimizer, query):
        candidates = extract_indices(query)
        ibg = build_ibg(toy_optimizer, query, candidates)
        assert ibg.all_used_indices() is ibg.all_used_indices()
