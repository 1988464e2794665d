# reprolint: zone=deterministic
"""Stable-partition selection: ``choosePartition`` of Figure 7.

A partition's *loss* is the summed current degree of interaction across
parts — the error bound it introduces in the decomposed cost formula (2.1).
The chooser compares a baseline partition (the current one, restricted to
the new candidate set, plus singletons for new indices) against
``RAND_CNT`` randomized bottom-up merges, and returns the feasible partition
with the least loss.

Feasibility is the paper's ``Σ_m 2^|P_m| ≤ stateCnt`` bound plus a hard
per-part size cap that keeps any single WFA instance tractable.

The search runs on *positions* in ``sorted(candidates)``: an index is an
int, a part is a mask of positions, and the interaction data is the list
of positive ``(i, j, doi)`` pairs, read from the ``doi`` callable once per
search and only for pairs on one table. A merge pass keeps the live pair
losses in slots in pool order and rewrites only the merged parts' slots,
and it makes each weighted draw inline, with the operations
``rng.choices`` makes. :func:`partition_loss` / :func:`pairwise_loss`
remain the set-level definition of the loss; the positional search
reproduces their float additions, and the set-level search's
``rng.choices`` draws, exactly (``tests/core/candidate_oracles.py``).
"""

from __future__ import annotations

import math
import random
from bisect import bisect
from itertools import accumulate
from typing import AbstractSet, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..db.index import Index

__all__ = ["partition_loss", "pairwise_loss", "choose_partition", "state_count"]

DoiFunction = Callable[[Index, Index], float]

#: ``(i, j, doi)`` with positions ``i < j`` and ``doi > 0``, in ``(i, j)``
#: order.
PositivePairs = List[Tuple[int, int, float]]

#: No part may exceed this many indices regardless of stateCnt (2^20 states
#: would be intractable for a single WFA instance).
MAX_PART_SIZE = 14


def state_count(parts: Sequence[AbstractSet[Index]]) -> int:
    """``Σ_m 2^|P_m|`` — the configurations WFIT would track."""
    return sum(1 << len(part) for part in parts)


def pairwise_loss(
    part_a: AbstractSet[Index], part_b: AbstractSet[Index], doi: DoiFunction
) -> float:
    """``loss({P_i, P_j})``: interaction mass between two parts."""
    total = 0.0
    for a in sorted(part_a):
        for b in sorted(part_b):
            total += doi(a, b)
    return total


def partition_loss(parts: Sequence[AbstractSet[Index]], doi: DoiFunction) -> float:
    """Total interaction mass ignored by the partition (lower is better)."""
    total = 0.0
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            total += pairwise_loss(parts[i], parts[j], doi)
    return total


def _positions(mask: int) -> List[int]:
    """The set bits of ``mask`` as positions, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _feasible(parts: Sequence[int], state_cnt: int) -> bool:
    sizes = [mask.bit_count() for mask in parts]
    if any(size > MAX_PART_SIZE for size in sizes):
        return False
    return sum(1 << size for size in sizes) <= state_cnt


def _loss(parts: Sequence[int], positive: PositivePairs, size: int) -> float:
    """:func:`partition_loss` of disjoint position-mask ``parts``.

    ``partition_loss`` adds, for each part pair ``p < q`` in order, a
    subtotal started at 0.0 and summed over ``sorted(P_p) × sorted(P_q)``.
    Every doi is ≥ 0, so its ``+ 0.0`` terms are exact no-ops: summing the
    cross-part positive pairs in (p, q, member of P_p, member of P_q) order,
    one subtotal per part pair, gives the same float.
    """
    part_of = [0] * size
    for number, mask in enumerate(parts):
        while mask:
            low = mask & -mask
            part_of[low.bit_length() - 1] = number
            mask ^= low
    cross = []
    for i, j, value in positive:
        p = part_of[i]
        q = part_of[j]
        if p < q:
            cross.append((p, q, i, j, value))
        elif q < p:
            cross.append((q, p, j, i, value))
    cross.sort()
    total = 0.0
    subtotal = 0.0
    group = (-1, -1)
    for p, q, _, _, value in cross:
        if (p, q) != group:
            total += subtotal
            subtotal = 0.0
            group = (p, q)
        subtotal += value
    return total + subtotal


def _merge_pass(
    size: int, positive: PositivePairs, state_cnt: int, rng: random.Random
) -> List[int]:
    """One randomized bottom-up merge pass (Figure 7, lines 9–18).

    Starts from ``size`` singleton parts (part ``k`` holds position ``k``)
    and returns the surviving parts' masks in part-id order. Pair losses
    are maintained incrementally: merging parts i and j into part m gives
    ``loss(m, k) = loss(i, k) + loss(j, k)``, so only pairs that started
    with positive doi ever need tracking.

    The live pairs ``(x, y, loss)``, part ids ``x < y``, sit in ``slots``
    in pool order, the order the weights and the draws follow. A merge
    rewrites only the slots of i and j, in slot order: the first slot of
    each other part k becomes ``(k, m, loss)`` and sums k's later slots
    into its loss, which goes dead (None) like the slot of (i, j). That is
    the order, and the float sum, of rebuilding the pair map with each
    merged pair inserted where its first contribution was.

    Each merge draws one pool entry the way ``rng.choices(pool,
    weights=weights)`` does (CPython 3.10–3.13): the cumulative weights by
    ``accumulate``, their total ``+ 0.0``, and ``bisect`` of
    ``rng.random() * total`` over all but the last position. A total that
    is not positive and finite goes to ``rng.choices`` itself, which
    raises its own error.
    """
    masks = [1 << k for k in range(size)]  # by part id; 0 once merged away
    sizes = [1] * size
    states = 2 * size  # Σ 2^|P| over live parts
    slots: List[Optional[Tuple[int, int, float]]] = list(positive)
    live = len(slots)
    # By part id: the slots that held a pair of the part, ascending (some
    # may have gone dead since).
    part_slots: List[List[int]] = [[] for _ in range(size)]
    for slot, (i, j, _) in enumerate(positive):
        part_slots[i].append(slot)
        part_slots[j].append(slot)
    # Pairs of two singletons, in pool order, and their weights (the
    # losses). Merging two singletons adds no states, so while any remain
    # they are the whole pool.
    singles = positive
    single_weights = [loss for _, _, loss in positive]
    draw = rng.random
    while live:
        if singles:
            pool = singles
            weights = single_weights
        else:
            pool = []
            weights = []
            for entry in slots:
                if entry is None:
                    continue
                i, j, loss = entry
                size_i = sizes[i]
                size_j = sizes[j]
                merged_size = size_i + size_j
                if merged_size > MAX_PART_SIZE:
                    continue
                # Weight by loss per additional tracked state: favors
                # merging small, strongly interacting parts (Figure 7,
                # line 17).
                added = (1 << merged_size) - (1 << size_i) - (1 << size_j)
                if states + added <= state_cnt:
                    pool.append(entry)
                    weights.append(loss / added)
            if not pool:
                break
        cumulative = list(accumulate(weights))
        total = cumulative[-1] + 0.0
        if not 0.0 < total < math.inf:
            rng.choices(pool, weights=weights)  # raises its ValueError
        i, j, _ = pool[bisect(cumulative, draw() * total, 0, len(pool) - 1)]
        merged_id = len(masks)
        size_i = sizes[i]
        size_j = sizes[j]
        states += (1 << (size_i + size_j)) - (1 << size_i) - (1 << size_j)
        masks.append(masks[i] | masks[j])
        sizes.append(size_i + size_j)
        masks[i] = masks[j] = 0
        merged_slots: List[int] = []
        first_slot: Dict[int, int] = {}  # other part -> its merged slot
        for slot in sorted(set(part_slots[i] + part_slots[j])):
            entry = slots[slot]
            if entry is None:
                continue
            x, y, loss = entry
            if x == i or x == j:
                if y == i or y == j:
                    slots[slot] = None  # absorbed into the merged part
                    live -= 1
                    continue
                other = y
            else:
                other = x
            kept = first_slot.get(other)
            if kept is None:
                # The first contribution is 0.0 + loss, which is loss.
                first_slot[other] = slot
                slots[slot] = (other, merged_id, loss)
                merged_slots.append(slot)
            else:
                slots[kept] = (other, merged_id, slots[kept][2] + loss)
                slots[slot] = None
                live -= 1
        part_slots.append(merged_slots)
        if singles:
            kept_singles = [
                k for k, (x, y, _) in enumerate(singles)
                if x != i and x != j and y != i and y != j
            ]
            singles = [singles[k] for k in kept_singles]
            single_weights = [single_weights[k] for k in kept_singles]
    return [mask for mask in masks if mask]


def choose_partition(
    candidates: AbstractSet[Index],
    state_cnt: int,
    current_partition: Sequence[AbstractSet[Index]],
    doi: DoiFunction,
    rng: random.Random,
    rand_cnt: int = 100,
) -> List[FrozenSet[Index]]:
    """``choosePartition(D, stateCnt)`` (Figure 7).

    Returns a feasible partition of ``candidates`` minimizing loss across
    the baseline and ``rand_cnt`` randomized merge passes, its parts
    ordered by their least index.

    ``doi`` is called once per *same-table* candidate pair ``(a, b)``
    with ``a < b``, in sorted order; only positive values are kept. A
    cross-table pair counts as 0.0 without a call: the cost model confines
    interaction to one table, and neither source of doi values (WFIT's
    statistics, :func:`~repro.core.offline.compute_fixed_partition`) ever
    records a cross-table pair. The baseline is
    ``current_partition`` (disjoint parts; indices outside ``candidates``
    are ignored) restricted to the candidates, plus a singleton for every
    candidate it does not cover. The passes then run on positions in
    ``sorted(candidates)`` without calling ``doi`` or comparing indices,
    and the losses are summed in :func:`partition_loss`'s order, so the
    result and the draws taken from ``rng`` are those of the set-level
    definition.
    """
    wanted = frozenset(candidates)
    if not wanted:
        return []
    size = len(wanted)
    if 2 * size > state_cnt:
        raise ValueError(
            f"stateCnt={state_cnt} cannot accommodate even singleton parts "
            f"for {size} candidates"
        )

    # Evaluate doi once per same-table pair (current-doi evaluation scans
    # a history and is not free); the passes only see the positive pairs.
    # Indices sort by table first, so each table's candidates are a run.
    ordered = sorted(wanted)
    positive: PositivePairs = []
    for i in range(size):
        a = ordered[i]
        for j in range(i + 1, size):
            b = ordered[j]
            if b.table != a.table:
                break
            value = doi(a, b)
            if value > 0.0:
                positive.append((i, j, value))

    best: Optional[List[int]] = None
    best_loss = float("inf")

    # Baseline: the current partition restricted to the new candidates, with
    # singleton parts for indices not previously monitored (lines 2–7).
    position = {index: k for k, index in enumerate(ordered)}
    baseline: List[int] = []
    covered = 0
    for part in current_partition:
        kept = 0
        for index in part:
            k = position.get(index)
            if k is not None:
                kept |= 1 << k
        if kept:
            baseline.append(kept)
            covered |= kept
    for k in range(size):
        if not covered >> k & 1:
            baseline.append(1 << k)
    if _feasible(baseline, state_cnt):
        best = baseline
        best_loss = _loss(baseline, positive, size)

    for _ in range(rand_cnt):
        parts = _merge_pass(size, positive, state_cnt, rng)
        loss = _loss(parts, positive, size)
        if loss < best_loss or best is None:
            best = parts
            best_loss = loss
        if best_loss == 0.0:
            break
    if best is None:
        raise RuntimeError("partition search produced no candidate")
    # Disjoint parts: ordering by least index is ordering by sorted members.
    return [
        frozenset(ordered[k] for k in _positions(mask))
        for mask in sorted(best, key=lambda mask: mask & -mask)
    ]
