"""Property tests: the cost-vector IBG sweeps equal the per-context oracle.

:func:`repro.ibg.analysis.max_benefit` and
:func:`~repro.ibg.analysis.degree_of_interaction` read one cost vector per
pool (:meth:`IndexBenefitGraph.subset_costs`) and one benefit vector per
index (:meth:`IndexBenefitGraph.benefit_vector`); ``sweep_oracles`` keeps
the original sweeps, which price every context through ``cost_mask`` on
its own. For random read and write statements (writes charge
maintenance, which puts every maintained index in the pool), pools on
both sides of the numpy crossover (``NUMPY_MIN_POOL``, each case on both
backends) and pools near and above ``_FULL_ENUMERATION_LIMIT`` (where
the per-context sweep, sampling included, stays in charge), β of every
candidate and doi of every same-table pair must come out ``==``,
whichever of the two runs first on the graph's shared memo.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import event, given, settings, strategies as st

from repro.core.bitset import iter_bits, iter_submasks
from repro.core.wfa_kernel import available_backends, force_backend
from repro.db import Index
from repro.ibg.analysis import (
    _FULL_ENUMERATION_LIMIT,
    degree_of_interaction,
    max_benefit,
)
from repro.ibg.graph import NUMPY_MIN_POOL, build_ibg
from repro.optimizer import WhatIfOptimizer, extract_indices
from repro.query.ast import (
    ColumnRef,
    DeleteStatement,
    InsertStatement,
    RangePredicate,
    UpdateStatement,
)
from repro.workload import generate_workload, scaled_phases
from sweep_oracles import reference_degree_of_interaction, reference_max_benefit

#: The widest table of the benchmark catalog (11 columns): its one- and
#: two-column indices give write statements pools of any size we need.
_WIDE = "tpch.lineitem"


def _table_indices(catalog, table):
    columns = [column.name for column in catalog.table(table).columns]
    singles = [Index(table, (c,)) for c in columns]
    pairs = [Index(table, pair) for pair in itertools.permutations(columns, 2)]
    return singles + pairs


def _statistics(ibg, oracle):
    """β of every candidate, then doi of every same-table pair."""
    benefit = reference_max_benefit if oracle else max_benefit
    doi = reference_degree_of_interaction if oracle else degree_of_interaction
    ordered = sorted(ibg.candidates)
    betas = [benefit(ibg, index) for index in ordered]
    dois = [
        doi(ibg, a, b)
        for a, b in itertools.combinations(ordered, 2)
        if a.table == b.table
    ]
    return betas, dois


def _assert_matches_oracle(ibg, oracle_first):
    if oracle_first:
        expected = _statistics(ibg, oracle=True)
        actual = _statistics(ibg, oracle=False)
    else:
        actual = _statistics(ibg, oracle=False)
        expected = _statistics(ibg, oracle=True)
    assert actual == expected
    return actual


def _largest_pool(ibg):
    used = ibg.all_used_mask()
    universe = ibg.universe
    return max(
        ((used & universe.table_mask(table)).bit_count()
         for table in {index.table for index in ibg.candidates}),
        default=0,
    )


@pytest.fixture(scope="module")
def catalog(request):
    return request.getfixturevalue("bench_catalog")


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    extra=st.integers(0, 6),
    oracle_first=st.booleans(),
    data=st.data(),
)
def test_workload_statements_match_oracle(
    catalog, seed, extra, oracle_first, data
):
    """Generated reads and writes, over their mined candidates plus a few
    more indices on the tables they touch."""
    catalog_, stats = catalog
    optimizer = WhatIfOptimizer(stats)
    statements = generate_workload(
        catalog_, stats, scaled_phases(1), seed=seed
    ).statements
    statement = data.draw(st.sampled_from(statements))
    others = sorted(
        index
        for table in statement.tables_referenced()
        for index in _table_indices(catalog_, table)
    )
    candidates = set(sorted(extract_indices(statement))[:8])
    candidates.update(data.draw(st.lists(
        st.sampled_from(others), max_size=extra, unique=True
    )))
    ibg = build_ibg(optimizer, statement, frozenset(candidates))
    _assert_matches_oracle(ibg, oracle_first)
    event(f"{'write' if statement.is_update else 'read'}, "
          f"largest pool {_largest_pool(ibg)}")


@st.composite
def _wide_writes(draw):
    """An insert, delete or update on the wide table."""
    kind = draw(st.sampled_from(["insert", "delete", "update"]))
    column = ColumnRef(_WIDE, "l_shipdate")
    if kind == "insert":
        return InsertStatement(_WIDE, row_count=draw(st.integers(1, 500)))
    if kind == "delete":
        return DeleteStatement(_WIDE, (RangePredicate(column, hi=9000.0),))
    return UpdateStatement(
        _WIDE, ("l_quantity",), (RangePredicate(column, hi=9000.0),)
    )


def _maintained_candidates(catalog, statement):
    """The wide table's indices ``statement`` maintains: an update only
    those keyed on a column it sets."""
    catalog_, _ = catalog
    return sorted(
        index for index in _table_indices(catalog_, _WIDE)
        if not isinstance(statement, UpdateStatement)
        or "l_quantity" in index.columns
    )


def _wide_write_graph(catalog, statement, candidates):
    _, stats = catalog
    return build_ibg(WhatIfOptimizer(stats), statement, frozenset(candidates))


@pytest.mark.parametrize("size", range(
    _FULL_ENUMERATION_LIMIT - 2, _FULL_ENUMERATION_LIMIT + 3
))
@settings(max_examples=2, deadline=None)
@given(statement=_wide_writes(), oracle_first=st.booleans(), data=st.data())
def test_pools_near_and_above_the_enumeration_limit(
    catalog, size, statement, oracle_first, data
):
    """Writes charge maintenance, so every maintained candidate is in its
    table's pool: pools of limit − 2 … limit + 2 indices."""
    ibg = _wide_write_graph(catalog, statement, data.draw(st.lists(
        st.sampled_from(_maintained_candidates(catalog, statement)),
        min_size=size, max_size=size, unique=True,
    )))
    assert _largest_pool(ibg) == size
    _assert_matches_oracle(ibg, oracle_first)


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("size", range(NUMPY_MIN_POOL - 3, NUMPY_MIN_POOL + 3))
@settings(max_examples=3, deadline=None)
@given(statement=_wide_writes(), oracle_first=st.booleans(), data=st.data())
def test_pools_on_both_sides_of_the_numpy_crossover(
    catalog, backend, size, statement, oracle_first, data
):
    """Every case on each backend, on a fresh graph swept under it: pools
    below the crossover keep list vectors, pools at or above it numpy
    arrays when the backend is numpy."""
    ibg = _wide_write_graph(catalog, statement, data.draw(st.lists(
        st.sampled_from(_maintained_candidates(catalog, statement)),
        min_size=size, max_size=size, unique=True,
    )))
    assert _largest_pool(ibg) == size
    with force_backend(backend):
        _assert_matches_oracle(ibg, oracle_first)
    on_numpy = backend == "numpy" and size >= NUMPY_MIN_POOL
    pool = ibg.all_used_mask() & ibg.universe.table_mask(_WIDE)
    vector = ibg.benefit_vector(pool, pool & -pool)
    assert isinstance(vector, list) != on_numpy


def _oracle_benefit_vector(ibg, pool, bit):
    """``cost(k) − cost(k ∪ {a})`` for the contexts ``k`` of ``pool`` without
    ``a``, in ascending local order, each priced through ``cost_mask``."""
    rest = pool & ~bit
    contexts = [0]
    for member in iter_bits(rest):
        contexts += [context | member for context in contexts]
    return [ibg.cost_mask(k) - ibg.cost_mask(k | bit) for k in contexts]


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("size", [3, NUMPY_MIN_POOL + 1])
def test_benefit_vectors_are_memoized_per_pool_and_index(catalog, backend, size):
    """Each ``(pool, index)`` has its own vector: the pool first, then
    every sub-pool that holds the index, on one graph."""
    statement = InsertStatement(_WIDE, row_count=10)
    candidates = _maintained_candidates(catalog, statement)[:size]
    ibg = _wide_write_graph(catalog, statement, candidates)
    pool = ibg.all_used_mask() & ibg.universe.table_mask(_WIDE)
    assert pool.bit_count() == size
    with force_backend(backend):
        for bit in iter_bits(pool):
            for sub_pool in sorted(iter_submasks(pool), reverse=True):
                if sub_pool & bit:
                    vector = ibg.benefit_vector(sub_pool, bit)
                    assert list(vector) == _oracle_benefit_vector(
                        ibg, sub_pool, bit
                    )
