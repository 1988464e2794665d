"""Property tests: the cost-vector IBG sweeps equal the per-context oracle.

:func:`repro.ibg.analysis.max_benefit` and
:func:`~repro.ibg.analysis.degree_of_interaction` read one cost vector per
pool (:meth:`IndexBenefitGraph.subset_costs`); ``sweep_oracles`` keeps the
original sweeps, which price every context through ``cost_mask`` on its
own. For random read and write statements (writes charge maintenance,
which puts every maintained index in the pool) and pools near and above
``_FULL_ENUMERATION_LIMIT`` (where the per-context sweep, sampling
included, stays in charge), β of every candidate and doi of every
same-table pair must come out ``==``, whichever of the two runs first on
the graph's shared memo.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import event, given, settings, strategies as st

from repro.db import Index
from repro.ibg.analysis import (
    _FULL_ENUMERATION_LIMIT,
    degree_of_interaction,
    max_benefit,
)
from repro.ibg.graph import build_ibg
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
    catalog_, stats = catalog
    optimizer = WhatIfOptimizer(stats)
    # An update maintains only the indices keyed on a column it sets.
    wanted = sorted(
        index for index in _table_indices(catalog_, _WIDE)
        if not isinstance(statement, UpdateStatement)
        or "l_quantity" in index.columns
    )
    candidates = data.draw(st.lists(
        st.sampled_from(wanted), min_size=size, max_size=size, unique=True
    ))
    ibg = build_ibg(optimizer, statement, frozenset(candidates))
    assert _largest_pool(ibg) == size
    _assert_matches_oracle(ibg, oracle_first)

