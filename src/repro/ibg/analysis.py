# reprolint: zone=deterministic
"""Benefit and degree-of-interaction analysis over an IBG (after [16]).

Two quantities drive WFIT's candidate maintenance (§5.2.2):

* ``max_benefit(a)`` — the statement-level benefit statistic β_n recorded in
  ``idxStats``:  ``max_X benefit_q({a}, X)``.
* ``degree_of_interaction(a, b)`` — the doi_q(a, b) statistic recorded in
  ``intStats``:  ``max_X |benefit_q({a}, X) − benefit_q({a}, X ∪ {b})|``.

Both are maxima over configurations ``X ⊆ U``. Evaluating them needs no
further optimizer calls: every ``cost`` lookup is answered by the IBG. The
enumeration runs over one *pool* per index: the IBG's used indices on the
index's table.

**Separability.** The pool is table-local because the cost model is: a
table's access-path menu entries need only that table's indices, and each
join step's alternatives — hash join over the inner table's access path,
or, with ``enable_inlj``, an index-nested-loop join through an index on
the inner table — read only the inner table's index bits, while the join
order and every cardinality are configuration-independent. So ``used(X)``
restricted to a table ``T`` is ``used(X ∩ T)``, doi of a cross-table pair
is 0, and a graph built over ``T``'s candidates alone gives the same pool,
the same subset costs and the same β and doi, ``==``, as a graph over the
whole statement (``tests/optimizer/test_table_separability.py``). WFIT
reads each table's own graph (see the README's "Candidate maintenance").

The sweeps read one cost vector per pool: the graph lists
``C[k] = cost(k)`` for every subset ``k`` of the pool once
(:meth:`IndexBenefitGraph.subset_costs`), and from it, once per index
``a``, the benefit vector ``B_a[k] = C[k] − C[k|a]`` over the local masks
``k ∌ a`` (:meth:`IndexBenefitGraph.benefit_vector`); then

* ``β(a) = max(0, max over k of B_a[k])``, and
* ``doi(a, b) = max(0, max over k ∌ b of |B_a[k] − B_a[k|b]|)``, one pass
  over ``a``'s vector.

These are the subtractions a per-context sweep makes, so the maxima are
the same floats; every index and pair of a table reads the same cost
vector, and every partner of ``a`` the same benefit vector. A vector of a
pool of at least :data:`~repro.ibg.graph.NUMPY_MIN_POOL` indices is a
numpy array when the work-function kernel's backend switch selects numpy
(``REPRO_NO_NUMPY``, :func:`~repro.core.wfa_kernel.force_backend`); its
subtractions, ``abs`` and maximum are the same IEEE operations on the
same doubles. Pools above ``_FULL_ENUMERATION_LIMIT`` indices keep the
per-context sweep, which samples the contexts instead (see
:func:`_context_masks`).
"""

from __future__ import annotations

from itertools import chain
from typing import AbstractSet, Any, Dict, Iterable, Iterator, Tuple

from ..core.bitset import iter_submasks
from ..db.index import Index
from .graph import IndexBenefitGraph

__all__ = [
    "max_benefit",
    "degree_of_interaction",
    "interaction_pairs",
]

#: Enumerating configurations over more than this many scope indices falls
#: back to used-set-guided sampling rather than full enumeration.
_FULL_ENUMERATION_LIMIT = 12


def _pool_mask(ibg: IndexBenefitGraph, index: Index) -> int:
    """The indices that can share a context with ``index``, as a mask: the
    IBG's used indices on ``index``'s table."""
    return ibg.all_used_mask() & ibg.universe.table_mask(index.table)


def _context_masks(ibg: IndexBenefitGraph, scope: int) -> Iterator[int]:
    """Candidate contexts X for the maxima over a large pool, as masks.

    Full power set when the scope is small; otherwise the family of used
    sets realized by IBG nodes (projected into the scope), which is where
    the piecewise-constant benefit function changes value.
    """
    if scope.bit_count() <= _FULL_ENUMERATION_LIMIT:
        yield from iter_submasks(scope)
        return
    seen = {0}
    yield 0
    for node in ibg:
        projected = node.used_mask & scope
        for context in iter_submasks(projected):
            if context not in seen:
                seen.add(context)
                yield context
    if scope not in seen:
        yield scope


def _local_bit(pool: int, bit: int) -> int:
    """``bit``, a member of ``pool``, as a bit of ``pool``'s local masks."""
    return 1 << (pool & (bit - 1)).bit_count()


def _max_from_zero(values: Iterable[float]) -> float:
    """The largest value, or 0.0 if none is positive — with the per-context
    loop's strict ``>`` (below), so the float kept is the one it keeps."""
    return max(chain((0.0,), values))


def _array_max_from_zero(values: Any) -> float:
    """:func:`_max_from_zero` of a non-empty float64 array."""
    best = float(values.max())
    return best if best > 0.0 else 0.0


def max_benefit(ibg: IndexBenefitGraph, index: Index) -> float:
    """β = max over X ⊆ U of ``benefit_q({index}, X)`` (0 if never positive)."""
    if index not in ibg.universe:
        return 0.0
    bit = ibg.universe.bit_of(index)
    if not (ibg.candidates_mask & bit) or not (ibg.all_used_mask() & bit):
        return 0.0
    pool = _pool_mask(ibg, index)
    if pool.bit_count() <= _FULL_ENUMERATION_LIMIT:
        vector = ibg.benefit_vector(pool, bit)
        if isinstance(vector, list):
            return _max_from_zero(vector)
        return _array_max_from_zero(vector)
    best = 0.0
    cost = ibg.cost_mask
    for context in _context_masks(ibg, pool & ~bit):
        benefit = cost(context) - cost(context | bit)
        if benefit > best:
            best = benefit
    return best


def degree_of_interaction(ibg: IndexBenefitGraph, a: Index, b: Index) -> float:
    """doi_q(a, b) per §2 of the paper; symmetric in ``a`` and ``b``, and
    0 for indices on different tables (see the module docstring)."""
    if a == b:
        raise ValueError("degree of interaction is defined for distinct indices")
    universe = ibg.universe
    if a not in universe or b not in universe:
        return 0.0
    a_bit = universe.bit_of(a)
    b_bit = universe.bit_of(b)
    candidates = ibg.candidates_mask
    if not (candidates & a_bit) or not (candidates & b_bit):
        return 0.0
    if a.table != b.table:
        return 0.0
    used_anywhere = ibg.all_used_mask()
    if not (used_anywhere & a_bit) or not (used_anywhere & b_bit):
        return 0.0  # an index that never enters a plan cannot interact
    pool = _pool_mask(ibg, a)
    if pool.bit_count() <= _FULL_ENUMERATION_LIMIT:
        # a's benefit in every context, then the change b makes to it:
        # b's position is counted in the pool without a.
        vector = ibg.benefit_vector(pool, a_bit)
        local = _local_bit(pool & ~a_bit, b_bit)
        if isinstance(vector, list):
            return _max_from_zero(
                abs(vector[k] - vector[k | local])
                for k in range(len(vector)) if not k & local
            )
        halves = vector.reshape(-1, 2, local)
        return _array_max_from_zero(abs(halves[:, 0] - halves[:, 1]))
    worst = 0.0
    cost = ibg.cost_mask
    for context in _context_masks(ibg, pool & ~a_bit & ~b_bit):
        benefit_without = cost(context) - cost(context | a_bit)
        with_b = context | b_bit
        benefit_with = cost(with_b) - cost(with_b | a_bit)
        diff = abs(benefit_without - benefit_with)
        if diff > worst:
            worst = diff
    return worst


def interaction_pairs(
    ibg: IndexBenefitGraph, indices: AbstractSet[Index]
) -> Dict[Tuple[Index, Index], float]:
    """All positive doi values among ``indices`` (keys sorted per pair).

    Only pairs on one table are evaluated: every cross-table pair has
    doi 0.
    """
    candidates = sorted(set(indices) & set(ibg.candidates))
    out: Dict[Tuple[Index, Index], float] = {}
    for i, a in enumerate(candidates):
        for b in candidates[i + 1:]:
            if a.table != b.table:
                continue
            doi = degree_of_interaction(ibg, a, b)
            if doi > 0.0:
                out[(a, b)] = doi
    return out
