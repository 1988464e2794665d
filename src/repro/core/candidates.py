# reprolint: zone=deterministic
"""Benefit / interaction statistics and top-index selection (§5.2.2).

``idxStats`` keeps, per index, the ``histSize`` most recent positive
max-benefit observations ``(n, β_n)``; ``intStats`` keeps the analogous
``(n, doi_n)`` pairs per index pair. Both are summarized by the LRU-K-
inspired *current* statistic

    current(N) = max_ℓ (v_1 + … + v_ℓ) / (N − n_ℓ + 1)

over entries ordered newest-first, which favors recent observations.
``topIndices`` then scores candidates by current benefit, charging
not-yet-monitored indices their creation cost so that the monitored set
stays stable (Figure 6, line 5).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from typing import AbstractSet, Collection, Deque, Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..db.index import Index

__all__ = ["RecencyStatistic", "IndexStatistics", "top_indices"]


class RecencyStatistic:
    """A bounded history of positive ``(position, value)`` observations."""

    def __init__(self, hist_size: int) -> None:
        if hist_size < 1:
            raise ValueError("hist_size must be >= 1")
        self._entries: Deque[Tuple[int, float]] = deque(maxlen=hist_size)

    def record(self, position: int, value: float) -> None:
        """Append an observation; non-positive values are not recorded."""
        if value <= 0.0:
            return
        if self._entries and position <= self._entries[-1][0]:
            raise ValueError(
                f"observations must arrive in increasing position order "
                f"(got {position} after {self._entries[-1][0]})"
            )
        self._entries.append((position, value))

    def __len__(self) -> int:
        return len(self._entries)

    def export_state(self) -> List[List[float]]:
        """JSON-ready ``[position, value]`` pairs, oldest first."""
        return [[position, value] for position, value in self._entries]

    @classmethod
    def from_state(
        cls, hist_size: int, entries: Iterable[Tuple[int, float]]
    ) -> "RecencyStatistic":
        stat = cls(hist_size)
        for position, value in entries:
            stat.record(int(position), float(value))
        return stat

    def current(self, now: int) -> float:
        """The LRU-K style current value after ``now`` observed statements.

        ``max_ℓ (v_1 + … + v_ℓ) / (now − n_ℓ + 1)`` with entries newest
        first; 0 when the history is empty.
        """
        best = 0.0
        running = 0.0
        for position, value in reversed(self._entries):
            running += value
            window = now - position + 1
            if window < 1:
                raise ValueError(f"entry position {position} is in the future")
            average = running / window
            if average > best:
                best = average
        return best


def _pair_key(a: Index, b: Index) -> Tuple[Index, Index]:
    return (a, b) if a <= b else (b, a)


class IndexStatistics:
    """``idxStats`` and ``intStats`` of Figure 6, with current-value queries."""

    def __init__(self, hist_size: int = 100) -> None:
        self._hist_size = hist_size
        self._benefits: Dict[Index, RecencyStatistic] = {}
        self._interactions: Dict[Tuple[Index, Index], RecencyStatistic] = {}

    @property
    def hist_size(self) -> int:
        return self._hist_size

    def record_benefit(self, index: Index, position: int, beta: float) -> None:
        if beta <= 0.0:
            return
        stat = self._benefits.get(index)
        if stat is None:
            stat = RecencyStatistic(self._hist_size)
            self._benefits[index] = stat
        stat.record(position, beta)

    def record_interaction(
        self, a: Index, b: Index, position: int, doi: float
    ) -> None:
        if doi <= 0.0:
            return
        key = _pair_key(a, b)
        stat = self._interactions.get(key)
        if stat is None:
            stat = RecencyStatistic(self._hist_size)
            self._interactions[key] = stat
        stat.record(position, doi)

    def current_benefit(self, index: Index, now: int) -> float:
        """``benefit*_N(index)``."""
        stat = self._benefits.get(index)
        return stat.current(now) if stat is not None else 0.0

    def current_doi(self, a: Index, b: Index, now: int) -> float:
        """``doi*_N(a, b)`` (symmetric)."""
        stat = self._interactions.get(_pair_key(a, b))
        return stat.current(now) if stat is not None else 0.0

    def tracked_indices(self) -> FrozenSet[Index]:
        return frozenset(self._benefits)

    # -- checkpoint hooks ----------------------------------------------------

    def export_state(self) -> Dict[str, object]:
        """JSON-ready snapshot of ``idxStats`` and ``intStats``.

        Entries are sorted by index so the document is deterministic.
        """
        return {
            "hist_size": self._hist_size,
            "benefits": [
                {"index": index.to_payload(), "entries": stat.export_state()}
                for index, stat in sorted(self._benefits.items())
            ],
            "interactions": [
                {
                    "a": key[0].to_payload(),
                    "b": key[1].to_payload(),
                    "entries": stat.export_state(),
                }
                for key, stat in sorted(self._interactions.items())
            ],
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "IndexStatistics":
        hist_size = int(state["hist_size"])
        statistics = cls(hist_size)
        for item in state["benefits"]:
            index = Index.from_payload(item["index"])
            statistics._benefits[index] = RecencyStatistic.from_state(
                hist_size, item["entries"]
            )
        for item in state["interactions"]:
            key = _pair_key(
                Index.from_payload(item["a"]), Index.from_payload(item["b"])
            )
            statistics._interactions[key] = RecencyStatistic.from_state(
                hist_size, item["entries"]
            )
        return statistics

    def doi_lookup(self, now: int):
        """A ``doi(a, b) -> float`` callable bound to position ``now``."""
        def lookup(a: Index, b: Index) -> float:
            return self.current_doi(a, b, now)
        return lookup


def top_indices(
    pool: Collection[Index],
    limit: int,
    monitored: AbstractSet[Index],
    statistics: IndexStatistics,
    now: int,
    transitions,
    create_penalty_factor: Optional[float] = None,
) -> List[Index]:
    """``topIndices(X, u)``: the ≤ ``limit`` highest-potential indices.

    Monitored indices score their current benefit; others are additionally
    charged their creation cost so they need extra evidence to evict a
    monitored index (stability of the candidate set, §5.2.2).

    The result is ordered by ``(−score, index)``. ``pool`` is either a
    sequence already in index order (WFIT keeps U that way) or any other
    collection, which is sorted first; a stable sort on ``−score`` alone
    then keeps tied indices in index order, without comparing indices.

    Calibration note: the paper subtracts the raw creation cost. Because
    ``benefit*`` is a *per-statement average* while δ⁺ is a one-time cost —
    and in this cost model δ⁺ always exceeds any single statement's benefit
    — the raw charge would permanently lock every new index out once
    ``limit`` incumbents exist. The charge is therefore amortized over the
    statistics window: ``score = benefit* − δ⁺ · create_penalty_factor``
    with the factor defaulting to ``1 / hist_size``.
    """
    if limit <= 0:
        return []
    if create_penalty_factor is None:
        create_penalty_factor = 1.0 / statistics.hist_size
    ordered = pool if isinstance(pool, Sequence) else sorted(pool)
    negated: List[float] = []
    for index in ordered:
        score = statistics.current_benefit(index, now)
        if index not in monitored:
            score -= transitions.create_cost(index) * create_penalty_factor
        negated.append(-score)
    ranked = sorted(range(len(ordered)), key=negated.__getitem__)
    return [ordered[k] for k in ranked[:limit]]
