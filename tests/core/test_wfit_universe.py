"""WFIT keeps U in index order, and ``top_indices`` ranks it in that order.

U grows through extraction, through positive votes on indices WFIT never
saw, and through ``restore_state``. WFIT keeps it sorted as it grows and
hands ``top_indices`` U minus the recommendation in that order, which
then ranks by ``−score`` with a stable sort. Every pool ``top_indices``
receives must be sorted, its result must equal
``candidate_oracles.reference_top_indices`` (``(−score, index)`` over a
freshly sorted pool), and ``export_state()`` must list the sorted U.
"""

from __future__ import annotations

import copy
import random

import pytest

import repro.core.wfit as wfit_module
from candidate_oracles import reference_top_indices
from repro.core.candidates import top_indices
from repro.core.wfit import WFIT
from repro.db import Index, StatsTransitionCosts
from repro.optimizer import WhatIfOptimizer
from repro.workload import generate_workload, scaled_phases

#: Small enough that the ranking decides which indices are monitored.
_OPTIONS = {"idx_cnt": 6, "state_cnt": 64}


@pytest.fixture(scope="module")
def stream(bench_catalog):
    catalog, stats = bench_catalog
    return generate_workload(catalog, stats, scaled_phases(5), seed=5).statements


@pytest.fixture()
def checked_top_indices(monkeypatch):
    """Replace the ``top_indices`` WFIT calls with one that checks every
    call against the oracle; returns the list of pools it was given."""
    pools = []

    def checked(pool, limit, monitored, statistics, now, transitions,
                create_penalty_factor=None):
        assert isinstance(pool, list) and pool == sorted(set(pool))
        result = top_indices(pool, limit, monitored, statistics, now,
                             transitions, create_penalty_factor)
        assert result == reference_top_indices(
            set(pool), limit, monitored, statistics, now, transitions,
            create_penalty_factor,
        )
        pools.append(pool)
        return result

    monkeypatch.setattr(wfit_module, "top_indices", checked)
    return pools


def _tuner(stats) -> WFIT:
    return WFIT(WhatIfOptimizer(stats), StatsTransitionCosts(stats), **_OPTIONS)


def _assert_sorted_universe(tuner: WFIT) -> None:
    expected = [index.to_payload() for index in sorted(tuner.universe)]
    assert tuner.export_state()["universe"] == expected


def _unseen(tuner: WFIT, catalog, stream):
    """Two indices on the stream's tables that U lacks: one that sorts
    between U's members, and the last of all."""
    tables = sorted({t for s in stream for t in s.tables_referenced()})
    unseen = sorted(
        index
        for table in tables
        for index in (
            Index(table, (column.name,)) for column in catalog.table(table).columns
        )
        if index not in tuner.universe
    )
    low, high = min(tuner.universe), max(tuner.universe)
    inside = next(index for index in unseen if low < index < high)
    return inside, unseen[-1]


def test_positive_votes_on_unseen_indices_keep_u_sorted(
    bench_catalog, stream, checked_top_indices
):
    catalog, stats = bench_catalog
    tuner = _tuner(stats)
    for statement in stream[:15]:
        tuner.analyze_statement(statement)
    voted = frozenset(_unseen(tuner, catalog, stream))
    tuner.feedback(voted, frozenset())
    assert voted <= tuner.universe
    _assert_sorted_universe(tuner)
    for statement in stream[15:]:
        tuner.analyze_statement(statement)
    _assert_sorted_universe(tuner)
    assert len(checked_top_indices) == len(stream)
    assert all(voted <= set(pool) | tuner.recommend()
               for pool in checked_top_indices[15:])


def test_restore_state_sorts_u_and_continues_identically(
    bench_catalog, stream, checked_top_indices
):
    catalog, stats = bench_catalog
    tuner = _tuner(stats)
    for statement in stream[:20]:
        tuner.analyze_statement(statement)
    tuner.feedback(frozenset(_unseen(tuner, catalog, stream)), frozenset())
    state = tuner.export_state()
    # A document whose universe is out of order restores to a sorted U.
    shuffled = copy.deepcopy(state)
    random.Random(3).shuffle(shuffled["universe"])
    assert shuffled["universe"] != state["universe"]
    restored = WFIT.restore_state(
        WhatIfOptimizer(stats), StatsTransitionCosts(stats), shuffled
    )
    assert restored.export_state() == state
    for statement in stream[20:]:
        assert restored.analyze_statement(statement) == (
            tuner.analyze_statement(statement)
        )
    assert restored.export_state() == tuner.export_state()
    _assert_sorted_universe(restored)
