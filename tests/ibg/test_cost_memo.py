"""The per-graph ``cost_mask`` memo answers exactly what the graph walk does.

:meth:`IndexBenefitGraph.cost_mask` memoizes ``core cost + maintenance``
per configuration. For random read and write statements (writes charge
maintenance), every submask of the root must read the same float from the
memo — on the first (cold) and on a repeated (warm) lookup — as an uncached
covering walk plus the maintenance sum, and the benefit/interaction
statistics must come out unchanged. The memo, like the per-pool cost
vectors the statistics read, lives and dies with its graph.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bitset import iter_bits, iter_submasks
from repro.ibg.analysis import degree_of_interaction, max_benefit
from repro.ibg.graph import build_ibg
from repro.optimizer import WhatIfOptimizer, extract_indices
from repro.workload import generate_workload, scaled_phases

#: Root cap: 2^7 configurations per statement, every one checked.
_MAX_ROOT = 7


def _uncached_cost(ibg, optimizer, config_mask):
    """The graph walk of Lemma 1 from the root, then the maintenance
    charges of the configuration in ascending bit order."""
    wanted = config_mask & ibg.candidates_mask
    nodes = {node.mask: node for node in ibg.nodes}
    node = nodes[ibg.candidates_mask]
    while node.used_mask & ~wanted:
        extra = node.used_mask & ~wanted
        node = nodes[node.mask & ~(extra & -extra)]
    total = node.cost
    universe = ibg.universe
    charged = wanted & universe.project(ibg.maintained_indices)
    if charged:
        maintenance = 0.0
        for bit in iter_bits(charged):
            maintenance += optimizer.maintenance_cost(
                ibg.statement, universe.index_at(bit)
            )
        total += maintenance
    return total


class _Uncached:
    """An IBG view whose ``cost_mask`` walks the graph on every call, and
    whose ``subset_costs`` builds each pool's vector from those walks."""

    def __init__(self, ibg, optimizer):
        self._ibg = ibg
        self._optimizer = optimizer

    def __getattr__(self, name):
        return getattr(self._ibg, name)

    def __iter__(self):
        return iter(self._ibg)

    def cost_mask(self, config_mask):
        return _uncached_cost(self._ibg, self._optimizer, config_mask)

    def subset_costs(self, pool):
        masks = [0]
        for bit in iter_bits(pool):
            masks += [mask | bit for mask in masks]
        return [self.cost_mask(mask) for mask in masks]


def _statistics(ibg):
    ordered = sorted(ibg.all_used_indices())
    benefits = [max_benefit(ibg, index) for index in ordered]
    interactions = [
        degree_of_interaction(ibg, a, b)
        for i, a in enumerate(ordered) for b in ordered[i + 1:]
    ]
    return benefits, interactions


@pytest.fixture(scope="module")
def catalog(request):
    return request.getfixturevalue("bench_catalog")


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_memo_equals_uncached_walk_cold_and_warm(catalog, seed):
    catalog_, stats = catalog
    optimizer = WhatIfOptimizer(stats)
    statements = generate_workload(
        catalog_, stats, scaled_phases(1), seed=seed
    ).statements
    for statement in statements:
        root = sorted(extract_indices(statement))[:_MAX_ROOT]
        if not root:
            continue
        ibg = build_ibg(optimizer, statement, frozenset(root))
        reference = _Uncached(ibg, optimizer)
        # Statistics first, on a cold memo, against the uncached view.
        assert _statistics(ibg) == _statistics(reference)
        full = optimizer.mask_universe.encode(root)
        for config_mask in iter_submasks(full):
            expected = _uncached_cost(ibg, optimizer, config_mask)
            assert ibg.cost_mask(config_mask) == expected
            assert ibg.cost_mask(config_mask) == expected
        assert _statistics(ibg) == _statistics(reference)


def test_write_statements_charge_maintenance_through_the_memo(catalog):
    """The stream mix reaches the maintenance branch, cold and warm."""
    catalog_, stats = catalog
    optimizer = WhatIfOptimizer(stats)
    charged = 0
    for statement in generate_workload(
        catalog_, stats, scaled_phases(4), seed=1234
    ).statements:
        root = sorted(extract_indices(statement))[:_MAX_ROOT]
        if not statement.is_update or not root:
            continue
        ibg = build_ibg(optimizer, statement, frozenset(root))
        if not ibg.maintained_indices:
            continue
        maintained = optimizer.mask_universe.project(ibg.maintained_indices)
        for config_mask in iter_submasks(maintained):
            expected = _uncached_cost(ibg, optimizer, config_mask)
            assert ibg.cost_mask(config_mask) == expected
            assert ibg.cost_mask(config_mask) == expected
            charged += config_mask != 0
    assert charged > 0


def test_rebuilt_graph_starts_with_an_empty_memo(catalog):
    catalog_, stats = catalog
    optimizer = WhatIfOptimizer(stats)
    # A statement with two or more candidates on one table: that
    # table's graph can grow.
    statement, table = next(
        (s, a.table)
        for s in generate_workload(
            catalog_, stats, scaled_phases(2), seed=99
        ).statements
        for a, b in itertools.pairwise(sorted(extract_indices(s)))
        if a.table == b.table
    )
    indices = sorted(ix for ix in extract_indices(statement) if ix.table == table)
    small = optimizer.statement_ibg(statement, frozenset(indices[:1]))[table]
    for config_mask in iter_submasks(small.candidates_mask):
        small.cost_mask(config_mask)
    _statistics(small)
    assert small._subset_costs
    grown = optimizer.statement_ibg(statement, frozenset(indices))[table]
    assert grown is not small
    assert grown.candidates_mask & ~small.candidates_mask
    # Only the empty configuration, priced when the graph was built, and
    # no pool vector.
    assert list(grown._cost_memo) == [0]
    assert grown._subset_costs == {}
    for config_mask in iter_submasks(grown.candidates_mask):
        assert grown.cost_mask(config_mask) == _uncached_cost(
            grown, optimizer, config_mask
        )
