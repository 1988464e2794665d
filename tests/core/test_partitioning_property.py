"""Property tests: the positional ``choose_partition`` equals the set-based
oracle exactly.

:func:`repro.core.partitioning.choose_partition` runs Figure 7 on positions
and masks, reading ``doi`` once per pair; ``candidate_oracles`` keeps the
original frozenset implementation. Over random doi matrices (sparse, dense,
tied, decimal fractions whose sums round by order, magnitudes from 1e-300
to 1e6, all-zero), candidates on one to three tables, current partitions
(including infeasible baselines and indices that are no longer
candidates), budgets and ``rand_cnt`` ∈ {0, 1, 100}, both must return the
same partition (``==``, part order included) or raise the same error, call
``doi`` with the same pairs in the same order, and leave the RNG in the same
state. The matrices carry cross-table entries too; both searches must
ignore them and never ask ``doi`` for a cross-table pair.

Long merge sequences get their own cases: 40 candidates with dense
interaction, under a tight ``state_cnt`` and under one that lets parts
grow to ``MAX_PART_SIZE``. There every merge pass is compared on its own
with the oracle's: the parts, their loss and the RNG state after it.
"""

from __future__ import annotations

import random

from hypothesis import event, given, settings, strategies as st

from candidate_oracles import _randomized_merge, reference_choose_partition
from repro.core.partitioning import (
    MAX_PART_SIZE,
    _loss,
    _merge_pass,
    _positions,
    choose_partition,
    partition_loss,
)
from repro.db import Index
from synth import make_indices

#: Indices 0..n-1 are candidates; the last three only ever appear in the
#: current partition (indices that left the monitored set).
_FORMER = 3

_VALUES = {
    "tied": st.sampled_from([1.0, 2.0]),
    # Mathematically tied sums that round differently by summation order
    # (0.1 + 0.2 != 0.3): where the float order of the loss decides.
    "fractions": st.sampled_from([0.1, 0.2, 0.3, 0.7, 1 / 3]),
    "integers": st.integers(1, 50).map(float),
    "tiny": st.floats(1e-300, 1e-290),
    "wide": st.floats(1e-300, 1e6),
}


@st.composite
def search_cases(draw, max_candidates=12):
    n = draw(st.integers(0, max_candidates))
    tables = draw(st.integers(1, 3))
    slots = draw(st.lists(
        st.integers(0, tables - 1), min_size=n + _FORMER, max_size=n + _FORMER
    ))
    indices = [
        Index(f"syn.t{slot}", (f"c{i:02d}",)) for i, slot in enumerate(slots)
    ]
    candidates = sorted(indices[:n])
    density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.7, 1.0]))
    values = _VALUES[draw(st.sampled_from(sorted(_VALUES)))]
    matrix = {}
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.floats(0.0, 1.0)) < density:
                matrix[(candidates[i], candidates[j])] = draw(values)
            elif draw(st.booleans()):
                matrix[(candidates[i], candidates[j])] = 0.0
    # Each index goes to one of a few parts or is left out.
    slots = draw(st.lists(
        st.integers(-1, 3), min_size=len(indices), max_size=len(indices)
    ))
    current = [
        frozenset(ix for ix, slot in zip(indices, slots) if slot == part)
        for part in range(4)
    ]
    current = [part for part in current if part]
    state_cnt = draw(st.one_of(
        st.integers(max(0, 2 * n - 2), 2 * n + 8),
        st.integers(2 * n, 2 * n + 40),
        st.sampled_from([64, 500, 1 << 20]),
    ))
    rand_cnt = draw(st.sampled_from([0, 1, 100]))
    seed = draw(st.integers(0, 2**32 - 1))
    return frozenset(candidates), matrix, current, state_cnt, rand_cnt, seed


def _recording_doi(matrix, calls):
    def doi(a, b):
        calls.append((a, b))
        return matrix.get((a, b) if a <= b else (b, a), 0.0)
    return doi


def _outcome(search, case):
    candidates, matrix, current, state_cnt, rand_cnt, seed = case
    rng = random.Random(seed)
    calls = []
    try:
        result = ("ok", search(
            candidates, state_cnt, current, _recording_doi(matrix, calls),
            rng, rand_cnt=rand_cnt,
        ))
    except (ValueError, RuntimeError) as exc:
        result = ("raised", type(exc), str(exc))
    return result, calls, rng.getstate()


def _assert_same(case):
    expected, expected_calls, expected_rng = _outcome(reference_choose_partition, case)
    actual, actual_calls, actual_rng = _outcome(choose_partition, case)
    assert actual == expected
    assert actual_calls == expected_calls
    assert actual_rng == expected_rng
    assert all(a.table == b.table for a, b in actual_calls)
    return actual


@settings(max_examples=150, deadline=None)
@given(case=search_cases())
def test_matches_set_based_oracle(case):
    outcome = _assert_same(case)
    candidates, matrix = case[0], case[1]
    event(f"tables: {len({ix.table for ix in candidates})}")
    if any(a.table != b.table and value > 0.0 for (a, b), value in matrix.items()):
        event("positive cross-table entries")
    if outcome[0] == "ok":
        event(f"largest part: {max((len(p) for p in outcome[1]), default=0)}")
    else:
        event(f"raised {outcome[1].__name__}")


#: A case where the float order of the loss decides the result: summing a
#: pass's cross-part pairs in any other order (or without the per-part-pair
#: subtotals) returns a different partition. Found by random search.
_ORDER_SENSITIVE = {
    (0, 1): 0.7, (0, 2): 0.2, (0, 3): 0.2, (0, 4): 0.7, (0, 5): 0.1,
    (1, 2): 0.2, (1, 5): 0.3, (1, 6): 0.1, (2, 3): 0.3, (2, 4): 0.1,
    (2, 6): 0.3, (3, 4): 0.2, (3, 5): 0.7,
}


def test_oracle_cases_cover_the_contract():
    """Fixed cases for what random draws reach rarely: the singleton-budget
    error, no candidate at all with rand_cnt=0, a baseline part above
    MAX_PART_SIZE, multi-level merges under a tight budget, and a result
    decided by the loss's float summation order."""
    big = make_indices(MAX_PART_SIZE + 2)
    chain = {(big[k], big[k + 1]): float(k + 1) for k in range(len(big) - 1)}
    order_sensitive = {
        (big[i], big[j]): value for (i, j), value in _ORDER_SENSITIVE.items()
    }
    cases = [
        (frozenset(big[:5]), {}, [], 8, 100, 0),
        (frozenset(big[:4]), {}, [frozenset(big[:4])], 8, 0, 0),
        (frozenset(big), chain, [frozenset(big)], 1 << 20, 0, 0),
        (frozenset(big), chain, [frozenset(big)], 1 << 20, 100, 3),
        (frozenset(big[:10]), chain, [], 2 * 10 + 14, 100, 5),
        (frozenset(big[:7]), order_sensitive, [], 18, 100, 8),
    ]
    outcomes = [_assert_same(case) for case in cases]
    assert outcomes[0][0] == "raised" and outcomes[0][1] is ValueError
    assert outcomes[1][0] == "raised" and outcomes[1][1] is RuntimeError
    assert outcomes[2][0] == "raised" and outcomes[2][1] is RuntimeError
    assert outcomes[3][0] == "ok"
    assert max(len(part) for part in outcomes[4][1]) >= 3


#: Candidates of a long merge sequence: the size WFIT monitors by default.
_LONG = 40


#: The value kinds of ``_VALUES``, drawn from a seeded RNG: a long case
#: has 780 pairs, too many to draw one by one.
_SEEDED_VALUES = {
    "tied": lambda rng: rng.choice([1.0, 2.0]),
    "fractions": lambda rng: rng.choice([0.1, 0.2, 0.3, 0.7, 1 / 3]),
    "integers": lambda rng: float(rng.randint(1, 50)),
    "tiny": lambda rng: rng.uniform(1e-300, 1e-290),
    "wide": lambda rng: rng.uniform(1e-300, 1e6),
}


@st.composite
def long_merge_cases(draw):
    tables = draw(st.integers(1, 2))
    candidates = sorted(
        Index(f"syn.t{k % tables}", (f"c{k:02d}",)) for k in range(_LONG)
    )
    density = draw(st.sampled_from([0.3, 0.7, 1.0]))
    value = _SEEDED_VALUES[draw(st.sampled_from(sorted(_SEEDED_VALUES)))]
    values = random.Random(draw(st.integers(0, 2**32 - 1)))
    # Same-table pairs only: the merge pass never sees another kind.
    matrix = {}
    for i in range(_LONG):
        for j in range(i + 1, _LONG):
            a, b = candidates[i], candidates[j]
            if a.table == b.table and values.random() < density:
                matrix[(a, b)] = value(values)
    state_cnt = draw(st.one_of(
        st.integers(2 * _LONG, 2 * _LONG + 24), st.just(1 << 20)
    ))
    seed = draw(st.integers(0, 2**32 - 1))
    return candidates, matrix, state_cnt, seed


def _assert_passes_match(case, passes=3):
    """Run ``passes`` merge passes on each side, each side on its own RNG
    from one seed; compare parts, loss and RNG state after every pass.
    Returns the largest part seen."""
    candidates, matrix, state_cnt, seed = case
    doi = _recording_doi(matrix, [])
    positive = [
        (i, j, doi(a, b))
        for i, a in enumerate(candidates)
        for j, b in enumerate(candidates)
        if i < j and a.table == b.table and doi(a, b) > 0.0
    ]
    ours, theirs = random.Random(seed), random.Random(seed)
    largest = 0
    for _ in range(passes):
        masks = _merge_pass(_LONG, positive, state_cnt, ours)
        expected = _randomized_merge(candidates, state_cnt, doi, theirs)
        parts = [
            frozenset(candidates[k] for k in _positions(mask)) for mask in masks
        ]
        assert parts == expected
        assert _loss(masks, positive, _LONG) == partition_loss(expected, doi)
        assert ours.getstate() == theirs.getstate()
        largest = max(largest, max(len(part) for part in parts))
    return largest


@settings(max_examples=25, deadline=None)
@given(case=long_merge_cases())
def test_long_merge_sequences_match_the_oracle_pass_by_pass(case):
    largest = _assert_passes_match(case)
    event("tight budget" if case[2] < 1 << 20 else "loose budget")
    event(f"largest part: {largest}")


def test_long_merge_sequences_reach_the_part_size_cap():
    """Dense interaction and room to spare: parts grow to MAX_PART_SIZE."""
    candidates = sorted(
        Index("syn.t0", (f"c{k:02d}",)) for k in range(_LONG)
    )
    matrix = {
        (a, b): 0.1 + ((3 * i + 7 * j) % 10) / 10
        for i, a in enumerate(candidates)
        for j, b in enumerate(candidates) if i < j
    }
    assert _assert_passes_match((candidates, matrix, 1 << 20, 11)) == MAX_PART_SIZE
