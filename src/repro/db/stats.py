"""Catalog statistics: row counts, page counts, per-column distributions.

The cost model prices plans purely from these statistics, exactly as the
paper's evaluation does ("the total work metric is evaluated using the
optimizer's cost model", §6.1). Columns are modelled with a uniform
distribution over ``[min_value, max_value]`` plus a distinct count, which is
all the selectivity estimation in :mod:`repro.optimizer.cost_model` needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Mapping, Optional

from .schema import Catalog, SchemaError, Table

if TYPE_CHECKING:
    from ..query.ast import Statement

__all__ = ["PAGE_SIZE", "ColumnStats", "TableStats", "StatsRepository"]

#: Bytes per disk page. All I/O estimates are in units of page reads.
PAGE_SIZE = 8192


@dataclass(frozen=True)
class ColumnStats:
    """Distribution summary for one column.

    Attributes
    ----------
    n_distinct:
        Number of distinct values (``>= 1``).
    min_value / max_value:
        Domain bounds for numeric/date columns, used for range selectivity
        under the uniform assumption.
    null_frac:
        Fraction of NULLs; those rows never match predicates.
    """

    n_distinct: int
    min_value: float = 0.0
    max_value: float = 1.0
    null_frac: float = 0.0

    def __post_init__(self) -> None:
        if self.n_distinct < 1:
            raise ValueError("n_distinct must be >= 1")
        if self.max_value < self.min_value:
            raise ValueError("max_value must be >= min_value")
        if not 0.0 <= self.null_frac < 1.0:
            raise ValueError("null_frac must be in [0, 1)")

    @property
    def domain_width(self) -> float:
        return self.max_value - self.min_value

    def eq_selectivity(self) -> float:
        """Selectivity of ``col = literal`` (uniform assumption)."""
        return (1.0 - self.null_frac) / self.n_distinct

    def range_selectivity(self, lo: Optional[float], hi: Optional[float]) -> float:
        """Selectivity of ``lo <= col <= hi`` with open bounds allowed.

        ``None`` bounds mean unbounded on that side. The result is clamped to
        ``[1/n_distinct, 1]`` so that a vanishingly narrow range still matches
        roughly one distinct value — the same floor real optimizers apply.
        """
        effective_lo = self.min_value if lo is None else max(lo, self.min_value)
        effective_hi = self.max_value if hi is None else min(hi, self.max_value)
        if effective_hi < effective_lo:
            return 0.0
        if self.domain_width <= 0.0:
            fraction = 1.0
        else:
            fraction = (effective_hi - effective_lo) / self.domain_width
        floor = 1.0 / self.n_distinct
        sel = max(min(fraction, 1.0), floor)
        return sel * (1.0 - self.null_frac)


class TableStats:
    """Row count, derived page count, and per-column stats for one table."""

    def __init__(
        self,
        table: Table,
        row_count: int,
        column_stats: Mapping[str, ColumnStats],
    ) -> None:
        if row_count < 1:
            raise ValueError(f"row_count must be >= 1 for {table.qualified_name}")
        self.table = table
        self.row_count = row_count
        self._column_stats: Dict[str, ColumnStats] = {}
        for name, stats in column_stats.items():
            if not table.has_column(name):
                raise SchemaError(
                    f"stats for unknown column {name!r} of {table.qualified_name!r}"
                )
            self._column_stats[name] = stats

    @property
    def rows_per_page(self) -> int:
        return max(1, PAGE_SIZE // self.table.row_width)

    @property
    def page_count(self) -> int:
        return max(1, -(-self.row_count // self.rows_per_page))  # ceil division

    def column_stats(self, name: str) -> ColumnStats:
        """Stats for ``name``; unknown columns get a conservative default."""
        got = self._column_stats.get(name)
        if got is not None:
            return got
        # Default: moderately selective column over a unit domain. This keeps
        # the model total (every column can appear in a predicate) without
        # requiring exhaustive stats collection.
        return ColumnStats(n_distinct=max(2, self.row_count // 100))

    def has_column_stats(self, name: str) -> bool:
        return name in self._column_stats


class StatsRepository:
    """All statistics for a :class:`~repro.db.schema.Catalog`.

    This is the single source of truth consulted by the cost model, the index
    sizing logic, and the transition-cost model.
    """

    def __init__(self, catalog: Catalog, table_stats: Iterable[TableStats] = ()) -> None:
        self.catalog = catalog
        self._stats: Dict[str, TableStats] = {}
        for stats in table_stats:
            self.add_table_stats(stats)

    def add_table_stats(self, stats: TableStats) -> None:
        name = stats.table.qualified_name
        if name in self._stats:
            raise SchemaError(f"duplicate stats for table {name!r}")
        if not self.catalog.has_table(name):
            raise SchemaError(f"stats for table {name!r} not present in catalog")
        self._stats[name] = stats

    def table_stats(self, qualified_name: str) -> TableStats:
        try:
            return self._stats[qualified_name]
        except KeyError:
            raise SchemaError(
                f"no statistics for table {qualified_name!r}"
            ) from None

    def has_table_stats(self, qualified_name: str) -> bool:
        return qualified_name in self._stats

    def row_count(self, qualified_name: str) -> int:
        return self.table_stats(qualified_name).row_count

    def page_count(self, qualified_name: str) -> int:
        return self.table_stats(qualified_name).page_count

    def column_stats(self, qualified_name: str, column: str) -> ColumnStats:
        return self.table_stats(qualified_name).column_stats(column)

    def bind(self, statement: "Statement") -> None:
        """Check ``statement`` against these statistics and their schema.

        Raises :class:`SchemaError` when a table it references has no
        statistics, or a column it reads, writes, joins or sorts on is not
        in that table's schema.
        """
        for table in statement.tables_referenced():
            schema = self.table_stats(table).table
            for column in sorted(statement.columns_needed(table)):
                schema.column(column)
