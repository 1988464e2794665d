"""Per-context reference sweeps for the IBG benefit and interaction statistics.

These are the original bodies of :func:`repro.ibg.analysis.max_benefit` and
:func:`repro.ibg.analysis.degree_of_interaction`: every context ``X`` of
the interaction scope is priced through ``ibg.cost_mask`` on its own, two
lookups per context for β and four for doi. Production code reads the
same differences from one cost vector per pool; the property tests assert
that both give exactly equal (``==``) floats.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.bitset import iter_submasks
from repro.ibg.analysis import _FULL_ENUMERATION_LIMIT


def _scope_mask(ibg, index) -> int:
    universe = ibg.universe
    position = universe.position(index)
    bit = 0 if position is None else 1 << position
    pool = ibg.all_used_mask() & universe.table_mask(index.table)
    return pool & ~bit


def _context_masks(ibg, scope: int) -> Iterator[int]:
    """The full power set of a small scope; above the limit, the used sets
    realized by IBG nodes, projected into the scope."""
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


def reference_max_benefit(ibg, index) -> float:
    """β = max over contexts X of ``cost(X) − cost(X ∪ {index})``, from 0."""
    if index not in ibg.universe:
        return 0.0
    bit = ibg.universe.bit_of(index)
    if not (ibg.candidates_mask & bit) or not (ibg.all_used_mask() & bit):
        return 0.0
    best = 0.0
    cost = ibg.cost_mask
    for context in _context_masks(ibg, _scope_mask(ibg, index)):
        benefit = cost(context) - cost(context | bit)
        if benefit > best:
            best = benefit
    return best


def reference_degree_of_interaction(ibg, a, b) -> float:
    """doi(a, b) = max over contexts X of
    ``|benefit({a}, X) − benefit({a}, X ∪ {b})|``, from 0."""
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
        return 0.0
    scope = _scope_mask(ibg, a) & ~b_bit
    worst = 0.0
    cost = ibg.cost_mask
    for context in _context_masks(ibg, scope):
        benefit_without = cost(context) - cost(context | a_bit)
        with_b = context | b_bit
        benefit_with = cost(with_b) - cost(with_b | a_bit)
        diff = abs(benefit_without - benefit_with)
        if diff > worst:
            worst = diff
    return worst
