"""Workload containers: an ordered statement stream with phase annotations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

from ..query.ast import Statement

__all__ = ["Workload"]


@dataclass(frozen=True)
class _PhaseBoundary:
    name: str
    start: int  # index of first statement in the phase


class Workload:
    """An immutable statement stream ``Q`` with phase metadata.

    Supports the operations the experiments need: iteration, contiguous
    slicing (``workload[:n]`` is the prefix ``Q_n``), and a human-readable
    summary.
    """

    def __init__(
        self,
        statements: Sequence[Statement],
        phase_boundaries: Sequence[Tuple[str, int]] = (),
    ) -> None:
        self._statements: Tuple[Statement, ...] = tuple(statements)
        boundaries = [_PhaseBoundary(name, start) for name, start in phase_boundaries]
        boundaries.sort(key=lambda b: b.start)
        for boundary in boundaries:
            if not 0 <= boundary.start <= len(self._statements):
                raise ValueError(
                    f"phase {boundary.name!r} starts at {boundary.start}, "
                    f"outside the workload of length {len(self._statements)}"
                )
        self._boundaries: Tuple[_PhaseBoundary, ...] = tuple(boundaries)

    def __len__(self) -> int:
        return len(self._statements)

    def __iter__(self) -> Iterator[Statement]:
        return iter(self._statements)

    def __getitem__(self, item):
        if isinstance(item, slice):
            start, stop, step = item.indices(len(self._statements))
            if step != 1:
                raise ValueError("workload slices must be contiguous")
            kept = [
                (b.name, max(0, b.start - start))
                for b in self._boundaries
                if b.start < stop
            ]
            return Workload(self._statements[item], kept)
        return self._statements[item]

    @property
    def statements(self) -> Tuple[Statement, ...]:
        return self._statements

    @property
    def phase_boundaries(self) -> Tuple[Tuple[str, int], ...]:
        return tuple((b.name, b.start) for b in self._boundaries)

    @property
    def update_count(self) -> int:
        return sum(1 for s in self._statements if s.is_update)

    @property
    def query_count(self) -> int:
        return len(self._statements) - self.update_count

    def summary(self) -> str:
        """Per-phase statement and update counts, for logging."""
        lines = [
            f"workload: {len(self)} statements "
            f"({self.query_count} queries, {self.update_count} updates)"
        ]
        boundaries = list(self._boundaries)
        for i, boundary in enumerate(boundaries):
            end = (
                boundaries[i + 1].start
                if i + 1 < len(boundaries)
                else len(self._statements)
            )
            chunk = self._statements[boundary.start:end]
            updates = sum(1 for s in chunk if s.is_update)
            lines.append(
                f"  {boundary.name}: statements {boundary.start}..{end - 1}, "
                f"{len(chunk) - updates} queries / {updates} updates"
            )
        return "\n".join(lines)
