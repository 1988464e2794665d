"""Property test: a statement's per-table IBGs equal its whole-statement IBG.

:meth:`~repro.optimizer.WhatIfOptimizer.statement_ibg` builds one Index
Benefit Graph per referenced table, over that table's candidates only,
and WFIT reads β and doi from them. That is exact, not an approximation:
each access-path menu and join step of the plan template — index-nested-
loop alternatives included — reads only its own table's index bits, and
the join order does not depend on the configuration. So for random
statements from ``test_template_property``'s generators (multi-table
joins; UPDATE, DELETE and INSERT with maintenance), with ``enable_inlj``
off and on, and with pools above ``_FULL_ENUMERATION_LIMIT`` (where β and
doi sample contexts from the graph's nodes), every table ``T``'s graph must
agree with :func:`~repro.ibg.graph.build_ibg` over the whole statement:

* its root is ``T``'s relevant candidates;
* its used pool, the ``subset_costs`` of that pool, β of every candidate
  and doi of every pair are ``==`` to the whole graph's;
* ``whole.used_mask(X) & T == graph_T.used_mask(X & T)`` for random ``X``.
"""

from __future__ import annotations

import random

from hypothesis import event, given, settings, strategies as st

from repro.db import Index
from repro.ibg.analysis import (
    _FULL_ENUMERATION_LIMIT,
    degree_of_interaction,
    max_benefit,
)
from repro.ibg.graph import build_ibg
from repro.optimizer import CostModelConfig, WhatIfOptimizer

from test_template_property import (
    _random_candidates,
    _random_statement,
    _random_stats,
)

#: Whole-statement graphs of wide joins multiply across tables; the
#: oracle gets room the per-table graphs never need.
_WHOLE_CAP = 1 << 15

#: Random configurations checked per statement for the used-set property.
_RANDOM_CONFIGS = 24


def _wide_pool(rng: random.Random, stats, table: str, size: int):
    """Up to ``size`` distinct one- to three-column indices on ``table``."""
    columns = [c.name for c in stats.table_stats(table).table.columns]
    out = set()
    for _ in range(8 * size):
        if len(out) >= size:
            break
        width = rng.randint(1, min(3, len(columns)))
        out.add(Index(table, tuple(rng.sample(columns, width))))
    return out


def _instance(seed: int, wide: bool):
    rng = random.Random(seed)
    stats = _random_stats(rng, rng.randint(1, 3))
    statement = _random_statement(rng, stats)
    candidates = set(_random_candidates(rng, stats, statement))
    if wide:
        # One table gets a pool past the enumeration limit (writes keep
        # every maintained index in it); the others a few more indices.
        tables = statement.tables_referenced()
        big = rng.choice(tables)
        candidates |= _wide_pool(rng, stats, big, _FULL_ENUMERATION_LIMIT + 4)
        for table in tables:
            if table != big:
                candidates |= _wide_pool(rng, stats, table, 3)
    return stats, statement, sorted(candidates), rng


def _pool_statistics(graph, table_indices):
    betas = [max_benefit(graph, index) for index in table_indices]
    dois = [
        degree_of_interaction(graph, a, b)
        for i, a in enumerate(table_indices)
        for b in table_indices[i + 1:]
    ]
    return betas, dois


def _assert_separable(seed: int, enable_inlj: bool, wide: bool) -> None:
    stats, statement, candidates, rng = _instance(seed, wide)
    optimizer = WhatIfOptimizer(stats, CostModelConfig(enable_inlj=enable_inlj))
    universe = optimizer.mask_universe
    whole = build_ibg(optimizer, statement, frozenset(candidates), _WHOLE_CAP)
    graphs = optimizer.statement_ibg(statement, frozenset(candidates))

    root = whole.candidates_mask
    tables = sorted(statement.tables_referenced())
    assert list(graphs) == [t for t in tables if universe.table_mask(t) & root]

    configs = [0, root] + [
        rng.getrandbits(root.bit_length()) & root for _ in range(_RANDOM_CONFIGS)
    ]
    largest = 0
    for table, graph in graphs.items():
        table_mask = universe.table_mask(table)
        assert graph.candidates_mask == root & table_mask
        assert graph.candidates == frozenset(
            ix for ix in whole.candidates if ix.table == table
        )
        pool = graph.all_used_mask()
        assert pool == whole.all_used_mask() & table_mask
        largest = max(largest, pool.bit_count())
        if pool.bit_count() <= _FULL_ENUMERATION_LIMIT:
            assert graph.subset_costs(pool) == whole.subset_costs(pool)
        else:
            sample = [mask & pool for mask in configs]
            assert [graph.cost_mask(m) for m in sample] == [
                whole.cost_mask(m) for m in sample
            ]
        table_indices = sorted(graph.candidates)
        assert _pool_statistics(graph, table_indices) == _pool_statistics(
            whole, table_indices
        )
        for config in configs:
            assert whole.used_mask(config) & table_mask == graph.used_mask(
                config & table_mask
            )
    kind = type(statement).__name__
    event(f"{kind}, {len(tables)} table(s), "
          f"pool {'above' if largest > _FULL_ENUMERATION_LIMIT else 'within'} "
          "the enumeration limit")


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 100_000), enable_inlj=st.booleans())
def test_per_table_graphs_equal_the_whole_statement_graph(seed, enable_inlj):
    _assert_separable(seed, enable_inlj, wide=False)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 100_000), enable_inlj=st.booleans())
def test_pools_above_the_enumeration_limit(seed, enable_inlj):
    _assert_separable(seed, enable_inlj, wide=True)


def test_generators_reach_joins_writes_and_wide_pools():
    """The draws above keep reaching what the contract is about: joins
    with candidates on two or more tables (in both tests), maintained
    writes, and pools past the enumeration limit in reads and writes."""
    wanted = {"join", "wide join", "maintained write", "wide write", "wide read"}
    seen = set()
    for seed in range(200):
        for wide in (False, True):
            stats, statement, candidates, _ = _instance(seed, wide)
            graphs = WhatIfOptimizer(stats).statement_ibg(
                statement, frozenset(candidates)
            )
            if len(graphs) >= 2:
                seen.add("wide join" if wide else "join")
            for graph in graphs.values():
                if graph.maintained_indices:
                    seen.add("maintained write")
                if graph.all_used_mask().bit_count() > _FULL_ENUMERATION_LIMIT:
                    seen.add("wide write" if statement.is_update else "wide read")
        if seen == wanted:
            break
    assert seen == wanted
