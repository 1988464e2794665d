# reprolint: zone=deterministic
"""Offline candidate selection for the fixed-partition experiments (§6.1).

The paper's baseline experiments fix one candidate set and stable partition
for the whole workload so that all algorithms (WFIT, BC, OPT) choose from
the same configuration space. The partition is produced by "an offline
variation of the chooseCands algorithm": benefit and degree-of-interaction
are *averaged over the entire workload* instead of a recent suffix, and the
top indices / partition are chosen from those averages.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, List, Sequence, Tuple

from ..db.index import Index
from ..ibg.analysis import degree_of_interaction, max_benefit
from ..optimizer.extract import extract_indices
from ..optimizer.whatif import WhatIfOptimizer
from .partitioning import choose_partition

__all__ = ["FixedPartitionResult", "compute_fixed_partition"]


@dataclass(frozen=True)
class FixedPartitionResult:
    """The fixed configuration space shared by the §6 competitors."""

    universe: FrozenSet[Index]                  # U: all mined indices
    candidates: FrozenSet[Index]                # C ⊆ U: the monitored subset
    partition: Tuple[FrozenSet[Index], ...]     # stable partition of C
    average_benefit: Dict[Index, float]
    average_doi: Dict[Tuple[Index, Index], float]

    @property
    def max_part_size(self) -> int:
        return max((len(p) for p in self.partition), default=0)

    def singleton_partition(self) -> Tuple[FrozenSet[Index], ...]:
        """The same candidates under full independence (for WFIT-IND/BC)."""
        return tuple(frozenset({ix}) for ix in sorted(self.candidates))


def compute_fixed_partition(
    workload: Sequence[object],
    optimizer: WhatIfOptimizer,
    transitions,
    idx_cnt: int = 40,
    state_cnt: int = 500,
    seed: int = 0,
    max_ibg_nodes: int = 4096,
) -> FixedPartitionResult:
    """Mine U from the workload and choose the fixed C and partition.

    Following §6.1: U is collected from the read-only portion of the
    workload (the advisor-mined candidates), while benefit and interaction
    statistics are averaged over the *entire* workload (updates included, so
    maintenance-heavy indices score lower).
    """
    universe: set = set()
    for statement in workload:
        if not statement.is_update:
            universe.update(extract_indices(statement))
    universe_frozen = frozenset(universe)

    benefit_sums: Dict[Index, float] = {ix: 0.0 for ix in universe_frozen}
    doi_sums: Dict[Tuple[Index, Index], float] = {}
    n_statements = max(len(workload), 1)

    for statement in workload:
        # β and same-table doi are read from the index's own table graph.
        graphs = optimizer.statement_ibg(
            statement, universe_frozen, max_nodes=max_ibg_nodes
        )
        extracted = frozenset(extract_indices(statement))
        relevant = sorted(
            index
            for graph in graphs.values()
            for index in (extracted | graph.all_used_indices()) & graph.candidates
        )
        for index in relevant:
            benefit_sums[index] = benefit_sums.get(index, 0.0) + max_benefit(
                graphs[index.table], index
            )
        for i, a in enumerate(relevant):
            for b in relevant[i + 1:]:
                if a.table != b.table:
                    continue
                doi = degree_of_interaction(graphs[a.table], a, b)
                if doi > 0.0:
                    key = (a, b) if a <= b else (b, a)
                    doi_sums[key] = doi_sums.get(key, 0.0) + doi

    average_benefit = {
        index: total / n_statements for index, total in benefit_sums.items()
    }
    average_doi = {key: total / n_statements for key, total in doi_sums.items()}

    ranked = sorted(
        universe_frozen, key=lambda ix: (-average_benefit.get(ix, 0.0), ix)
    )
    candidates = frozenset(ranked[:idx_cnt])

    def doi_lookup(a: Index, b: Index) -> float:
        key = (a, b) if a <= b else (b, a)
        return average_doi.get(key, 0.0)

    partition = choose_partition(
        candidates,
        state_cnt,
        current_partition=[],
        doi=doi_lookup,
        rng=random.Random(seed),
    )
    return FixedPartitionResult(
        universe=universe_frozen,
        candidates=candidates,
        partition=tuple(partition),
        average_benefit=average_benefit,
        average_doi=average_doi,
    )
