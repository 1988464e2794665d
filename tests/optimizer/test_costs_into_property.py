"""Property test: every output form of ``costs_into`` prices and counts alike.

:meth:`~repro.optimizer.WhatIfOptimizer.costs_into` takes a WFA part as
one global bit per position and fills ``out[m]`` for every local mask
``m`` of the part: it prices only the submasks of the positions on the
statement's tables and spreads them over ``out`` — with one gather into a
numpy vector (the numpy kernel) or one lookup loop into an ``array('d')``
(the pure-Python kernel) or a list. For random parts of 1–12 positions,
all off the statement's tables, all on them, or mixed, every entry must
equal ``cost_mask`` of that local mask's global configuration (``==``),
and the memo and ``cache_stats()`` must equal those of one per-mask probe
of all ``2^k`` configurations (``plan_usage_masks``), a repeat of the
part included.

A universe of 64 or more indices on the statement's tables puts its table
mask past ``2^63``, which long auto-mode runs reach; the wide cases draw
parts with a position there.
"""

from __future__ import annotations

import itertools
import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.db import Index
from repro.optimizer import WhatIfOptimizer

from test_template_property import (
    _random_candidates,
    _random_statement,
    _random_stats,
)

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    np = None


def _all_indices(stats, tables, max_width=3):
    """Every index of up to ``max_width`` columns on ``tables``."""
    out = []
    for table in tables:
        columns = [c.name for c in stats.table_stats(table).table.columns]
        for width in range(1, max_width + 1):
            for cols in itertools.permutations(columns, width):
                out.append(Index(table, cols))
    return out


def _instance(rng: random.Random, wide: bool):
    """(stats, statement, indices in registration order)."""
    while True:
        stats = _random_stats(rng, rng.randint(1, 3))
        statement = _random_statement(rng, stats)
        if not wide:
            # The statement's candidates plus indices anywhere in the
            # catalog, so relevance reduction has bits to drop.
            tables = [t.qualified_name for t in stats.catalog.tables]
            every = _all_indices(stats, tables)
            noise = rng.sample(every, min(len(every), rng.randint(0, 8)))
            indices = list(dict.fromkeys(
                _random_candidates(rng, stats, statement) + noise
            ))
            if not indices:
                continue
            rng.shuffle(indices)
            return stats, statement, indices
        pool = _all_indices(stats, statement.tables_referenced())
        if len(pool) >= 64:
            rng.shuffle(pool)
            return stats, statement, pool[: rng.randint(64, 72)]


def _part(rng: random.Random, statement, indices, wide: bool):
    """Universe positions of a part of 1–12 indices, in local order: all
    off the statement's tables, all on them, or drawn from every index."""
    tables = set(statement.tables_referenced())
    pools = [
        [pos for pos, ix in enumerate(indices) if ix.table not in tables],
        [pos for pos, ix in enumerate(indices) if ix.table in tables],
        list(range(len(indices))),
    ]
    pool = rng.choice([pool for pool in pools if pool])
    positions = rng.sample(pool, rng.randint(1, min(12, len(pool))))
    if wide and max(positions) < 63:
        positions[0] = rng.randrange(63, len(indices))
    return positions


def _optimizer(stats, indices):
    optimizer = WhatIfOptimizer(stats)
    for index in indices:
        optimizer.mask_universe.ensure(index)
    return optimizer


def _price(optimizer, statement, bits, form):
    size = 1 << len(bits)
    if form == "list":
        out = [0.0] * size
        optimizer.costs_into(statement, bits, out)
        return list(out)
    if form == "array":
        out = array("d", bytes(8 * size))
        optimizer.costs_into(statement, bits, out)
        return out.tolist()
    out = np.empty(size, dtype=np.float64)
    optimizer.costs_into(statement, bits, out)
    return out.tolist()


def _check_forms_agree(seed: int, wide: bool, forms) -> None:
    rng = random.Random(seed)
    stats, statement, indices = _instance(rng, wide)
    bits = [1 << pos for pos in _part(rng, statement, indices, wide)]
    configs = [
        sum(bit for i, bit in enumerate(bits) if mask >> i & 1)
        for mask in range(1 << len(bits))
    ]

    lookups = _optimizer(stats, indices)
    expected = [lookups.cost_mask(statement, config) for config in configs]
    probes = _optimizer(stats, indices)
    for _ in range(2):  # the repeat hits the memo
        probes.plan_usage_masks(statement, configs)
    if wide:
        tables_mask = probes.relevant_mask(statement, (1 << len(indices)) - 1)
        assert tables_mask >> 63, "the wide universe must pass 2^63"
    for form in forms:
        optimizer = _optimizer(stats, indices)
        for _ in range(2):
            assert _price(optimizer, statement, bits, form) == expected, form
        assert optimizer._cache[statement] == probes._cache[statement], form
        assert optimizer.cache_stats() == probes.cache_stats(), form


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000), wide=st.booleans())
def test_list_and_array_outputs_agree(seed, wide):
    _check_forms_agree(seed, wide, ("list", "array"))


@pytest.mark.skipif(np is None, reason="numpy not installed")
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000), wide=st.booleans())
def test_numpy_and_list_batches_agree(seed, wide):
    """The numpy vector form (one ``&`` and one gather) prices and counts
    exactly like the list form, past ``2^63`` too."""
    _check_forms_agree(seed, wide, ("list", "numpy"))
