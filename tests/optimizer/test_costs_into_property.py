"""Property test: every batch form of ``costs_into`` prices and counts alike.

:meth:`~repro.optimizer.WhatIfOptimizer.costs_into` takes a WFA part's
configuration masks as a list (the pure-Python kernel: one memo probe per
mask) or as an int64 numpy vector with a float64 output (the numpy kernel:
the batch collapses to its distinct relevant masks first). For random
batches of masks, repeats included, fresh optimizers fed each form must
give the same costs, the same memo entries and the same ``cache_stats()``;
the costs must also equal one ``cost_mask`` lookup per mask.

A universe of 64 or more indices on the statement's tables puts its table
mask past ``2^63``: there the numpy input cannot carry the reduction and
falls back to the int loop, which long auto-mode runs reach.
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

#: Bits the batch masks draw from: an int64 vector carries them all.
_MASK_BITS = 62


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
            rng.shuffle(indices)
            return stats, statement, indices
        pool = _all_indices(stats, statement.tables_referenced())
        if len(pool) >= 64:
            rng.shuffle(pool)
            return stats, statement, pool[: rng.randint(64, 72)]


def _batch(rng: random.Random, width: int):
    """Masks over the first ``width`` bits, with repeats."""
    distinct = [rng.getrandbits(width) for _ in range(rng.randint(1, 12))]
    return [rng.choice(distinct) for _ in range(rng.randint(1, 48))]


def _optimizer(stats, indices):
    optimizer = WhatIfOptimizer(stats)
    for index in indices:
        optimizer.mask_universe.ensure(index)
    return optimizer


def _price(optimizer, statement, batch, form):
    if form == "list":
        out = [0.0] * len(batch)
        optimizer.costs_into(statement, list(batch), out)
        return list(out)
    if form == "array":
        out = array("d", bytes(8 * len(batch)))
        optimizer.costs_into(statement, list(batch), out)
        return out.tolist()
    out = np.empty(len(batch), dtype=np.float64)
    optimizer.costs_into(statement, np.asarray(batch, dtype=np.int64), out)
    return out.tolist()


def _check_forms_agree(seed: int, wide: bool, forms) -> None:
    rng = random.Random(seed)
    stats, statement, indices = _instance(rng, wide)
    width = min(len(indices), _MASK_BITS)
    batches = [_batch(rng, width) for _ in range(2)]  # the 2nd hits the memo

    lookups = _optimizer(stats, indices)
    expected = [
        [lookups.cost_mask(statement, mask) for mask in batch] for batch in batches
    ]
    results = {}
    for form in forms:
        optimizer = _optimizer(stats, indices)
        if wide:
            tables_mask = optimizer.relevant_mask(statement, (1 << len(indices)) - 1)
            assert tables_mask >> 63, "the wide universe must pass 2^63"
        costs = [_price(optimizer, statement, batch, form) for batch in batches]
        assert costs == expected, form
        results[form] = (optimizer._cache[statement], optimizer.cache_stats())
    first, *rest = forms
    for form in rest:
        assert results[form][0] == results[first][0], f"memo: {form} != {first}"
        assert results[form][1] == results[first][1], f"stats: {form} != {first}"


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000), wide=st.booleans())
def test_list_and_array_outputs_agree(seed, wide):
    _check_forms_agree(seed, wide, ("list", "array"))


@pytest.mark.skipif(np is None, reason="numpy not installed")
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000), wide=st.booleans())
def test_numpy_and_list_batches_agree(seed, wide):
    """The numpy vector form (the dedupe, or the int-loop fallback past
    ``2^63``) prices and counts exactly like the list form."""
    _check_forms_agree(seed, wide, ("list", "numpy"))
