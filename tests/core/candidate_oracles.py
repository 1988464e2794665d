"""Set-based reference oracles for WFIT's candidate maintenance.

These are the original, frozenset-level implementations of
``choosePartition`` (Figure 7), of the ``repartition`` warm start
(Figure 5, lines 4–7) and of ``topIndices`` (Figure 6, line 5). Like
production, the partition oracle reads doi for same-table pairs only and
takes every cross-table pair as 0.0. Production code
(:mod:`repro.core.partitioning`,
:meth:`repro.core.wfa_plus.WFAPlus.repartition`,
:func:`repro.core.candidates.top_indices` over WFIT's ordered U) runs the
same computations on positions, masks and pre-sorted pools; the property
tests assert that both give exactly equal (``==``) results and leave the
RNG in the same state.
"""

from __future__ import annotations

import random
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.bitset import IndexUniverse, delta_cost
from repro.core.partitioning import MAX_PART_SIZE, partition_loss, state_count
from repro.db import Index


def _feasible(parts: Sequence[AbstractSet[Index]], state_cnt: int) -> bool:
    if any(len(part) > MAX_PART_SIZE for part in parts):
        return False
    return state_count(parts) <= state_cnt


def _randomized_merge(
    indices: Sequence[Index],
    state_cnt: int,
    doi,
    rng: random.Random,
) -> List[FrozenSet[Index]]:
    """One randomized bottom-up merge pass (Figure 7, lines 9–18)."""
    universe = IndexUniverse(indices)
    parts: Dict[int, int] = {
        k: 1 << universe.ensure(ix) for k, ix in enumerate(indices)
    }
    next_id = len(indices)
    ordered = list(indices)
    pair_loss: Dict[Tuple[int, int], float] = {}
    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            value = doi(ordered[i], ordered[j])
            if value > 0.0:
                pair_loss[(i, j)] = value

    def total_states() -> int:
        return sum(1 << mask.bit_count() for mask in parts.values())

    while pair_loss:
        states = total_states()
        mergeable: List[Tuple[int, int, float]] = []
        for (i, j), loss in pair_loss.items():
            size_i = parts[i].bit_count()
            size_j = parts[j].bit_count()
            if size_i + size_j > MAX_PART_SIZE:
                continue
            new_states = states - (1 << size_i) - (1 << size_j) + (
                1 << (size_i + size_j)
            )
            if new_states <= state_cnt:
                mergeable.append((i, j, loss))
        if not mergeable:
            break
        singleton_pairs = [
            (i, j, loss)
            for i, j, loss in mergeable
            if parts[i].bit_count() == 1 and parts[j].bit_count() == 1
        ]
        if singleton_pairs:
            pool = singleton_pairs
            weights = [loss for _, _, loss in pool]
        else:
            pool = mergeable
            weights = [
                loss
                / (
                    (1 << (parts[i].bit_count() + parts[j].bit_count()))
                    - (1 << parts[i].bit_count())
                    - (1 << parts[j].bit_count())
                )
                for i, j, loss in pool
            ]
        i, j, _ = rng.choices(pool, weights=weights)[0]
        merged_id = next_id
        next_id += 1
        parts[merged_id] = parts[i] | parts[j]
        del parts[i], parts[j]
        updated: Dict[Tuple[int, int], float] = {}
        for (x, y), loss in pair_loss.items():
            if x in (i, j) and y in (i, j):
                continue
            if x in (i, j):
                key = (min(y, merged_id), max(y, merged_id))
                updated[key] = updated.get(key, 0.0) + loss
            elif y in (i, j):
                key = (min(x, merged_id), max(x, merged_id))
                updated[key] = updated.get(key, 0.0) + loss
            else:
                updated[(x, y)] = updated.get((x, y), 0.0) + loss
        pair_loss = updated
    return [universe.decode(mask) for mask in parts.values()]


def reference_choose_partition(
    candidates: AbstractSet[Index],
    state_cnt: int,
    current_partition: Sequence[AbstractSet[Index]],
    doi,
    rng: random.Random,
    rand_cnt: int = 100,
) -> List[FrozenSet[Index]]:
    """``choosePartition`` over frozensets, as the paper states it."""
    wanted = frozenset(candidates)
    if not wanted:
        return []
    if state_count([{ix} for ix in wanted]) > state_cnt:
        raise ValueError(
            f"stateCnt={state_cnt} cannot accommodate even singleton parts "
            f"for {len(wanted)} candidates"
        )
    ordered_all = sorted(wanted)
    matrix: dict = {}
    for i, a in enumerate(ordered_all):
        for b in ordered_all[i + 1:]:
            if a.table != b.table:
                continue  # interaction is confined to one table
            value = doi(a, b)
            if value > 0.0:
                matrix[(a, b)] = value

    def cached_doi(a: Index, b: Index) -> float:
        key = (a, b) if a <= b else (b, a)
        return matrix.get(key, 0.0)

    best: Optional[List[FrozenSet[Index]]] = None
    best_loss = float("inf")
    baseline: List[FrozenSet[Index]] = []
    covered: set = set()
    for part in current_partition:
        kept = frozenset(part) & wanted
        if kept:
            baseline.append(kept)
            covered.update(kept)
    for index in sorted(wanted - covered):
        baseline.append(frozenset({index}))
    if _feasible(baseline, state_cnt):
        best = baseline
        best_loss = partition_loss(baseline, cached_doi)

    ordered = sorted(wanted)
    for _ in range(rand_cnt):
        parts = _randomized_merge(ordered, state_cnt, cached_doi, rng)
        loss = partition_loss(parts, cached_doi)
        if loss < best_loss or best is None:
            best = parts
            best_loss = loss
        if best_loss == 0.0:
            break
    if best is None:
        raise RuntimeError("partition search produced no candidate")
    return sorted(best, key=lambda p: sorted(p))


def reference_top_indices(
    pool: AbstractSet[Index],
    limit: int,
    monitored: AbstractSet[Index],
    statistics,
    now: int,
    transitions,
    create_penalty_factor: Optional[float] = None,
) -> List[Index]:
    """``topIndices`` by sorting ``(score, index)`` pairs on
    ``(−score, index)``, over a freshly sorted pool."""
    if limit <= 0:
        return []
    if create_penalty_factor is None:
        create_penalty_factor = 1.0 / statistics.hist_size
    scored: List[Tuple[float, Index]] = []
    for index in sorted(set(pool)):
        score = statistics.current_benefit(index, now)
        if index not in monitored:
            score -= transitions.create_cost(index) * create_penalty_factor
        scored.append((score, index))
    scored.sort(key=lambda item: (-item[0], item[1]))
    return [index for _, index in scored[:limit]]


def reference_warm_start(tuner, new_parts: Sequence[FrozenSet[Index]]) -> List[List[float]]:
    """The work-function vectors ``repartition`` seeds each new part with.

    Line 6 of Figure 5 sums, over the old parts that overlap the new one
    (in old-part order), the old part's ``w`` of the configuration
    restricted to it; line 7 adds δ(S0 ∩ P − C_old, S − C_old) for indices
    never monitored before. Returned in each new part's local mask order.
    """
    old_candidates = tuner.candidates
    old_parts = list(tuner.partition)
    old_values = [instance.work_function() for instance in tuner._plus.instances]
    initial = tuner._initial_config
    out: List[List[float]] = []
    for part in new_parts:
        ordered = sorted(part)
        vector: List[float] = []
        for mask in range(1 << len(ordered)):
            subset = frozenset(
                ix for i, ix in enumerate(ordered) if mask & (1 << i)
            )
            total = 0.0
            for old_part, old_value in zip(old_parts, old_values):
                if old_part & part:
                    total += old_value[subset & old_part]
            total += delta_cost(
                tuner._transitions,
                (initial & part) - old_candidates,
                subset - old_candidates,
            )
            vector.append(total)
        out.append(vector)
    return out
