"""Statement representation consumed by the what-if optimizer.

Statements are immutable, hashable value objects: the what-if cache keys on
``(statement, configuration)``, mirroring the configuration-parametric
optimization of Bruno & Nehme [8] that the paper cites for fast repeated
what-if calls. A statement computes its hash once (the value the generated
dataclass ``__hash__`` returns) and rebuilds through its constructor on
pickle or copy, so the cached value never leaves the process.

The modelled SQL subset matches the paper's benchmark workload: conjunctive
select-project-join queries (equality / range / BETWEEN predicates, equi-
joins, optional ORDER BY, ``count(*)`` or a column projection) plus UPDATE /
INSERT / DELETE statements.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import FrozenSet, Optional, Tuple, Union

__all__ = [
    "ColumnRef",
    "EqualityPredicate",
    "RangePredicate",
    "TablePredicate",
    "JoinPredicate",
    "OrderBy",
    "SelectQuery",
    "UpdateStatement",
    "InsertStatement",
    "DeleteStatement",
    "Statement",
]


def _field_values(statement) -> tuple:
    return tuple(getattr(statement, f.name) for f in fields(statement))


def _hash_once(self) -> int:
    """The generated dataclass hash (of the field tuple), computed once per
    statement: statements key the what-if memo and the template and IBG
    caches, and rehashing a query's field tree costs microseconds. The
    class attribute ``_hash = None`` marks a statement not hashed yet."""
    value = self._hash
    if value is None:
        value = hash(_field_values(self))
        object.__setattr__(self, "_hash", value)
    return value


def _rebuild(self):
    """Pickle and copy through the constructor: ``str`` hashes are salted
    per process, so the cached hash must not travel with the statement."""
    return (type(self), _field_values(self))


@dataclass(frozen=True, order=True)
class ColumnRef:
    """A reference to ``table.column`` with the table fully qualified."""

    table: str
    column: str

    def __str__(self) -> str:
        return f"{self.table}.{self.column}"


@dataclass(frozen=True)
class EqualityPredicate:
    """``column = literal``. The literal value itself does not matter for
    uniform-distribution selectivity, but is kept for display/round-tripping."""

    column: ColumnRef
    value: object = None

    @property
    def table(self) -> str:
        return self.column.table

    def __str__(self) -> str:
        return f"{self.column} = {self.value!r}"


@dataclass(frozen=True)
class RangePredicate:
    """``lo <= column <= hi`` with either bound optional (open interval)."""

    column: ColumnRef
    lo: Optional[float] = None
    hi: Optional[float] = None

    def __post_init__(self) -> None:
        if self.lo is None and self.hi is None:
            raise ValueError("range predicate needs at least one bound")
        if self.lo is not None and self.hi is not None and self.hi < self.lo:
            raise ValueError(f"empty range: [{self.lo}, {self.hi}]")

    @property
    def table(self) -> str:
        return self.column.table

    def __str__(self) -> str:
        if self.lo is not None and self.hi is not None:
            return f"{self.column} BETWEEN {self.lo} AND {self.hi}"
        if self.lo is not None:
            return f"{self.column} >= {self.lo}"
        return f"{self.column} <= {self.hi}"


TablePredicate = Union[EqualityPredicate, RangePredicate]


@dataclass(frozen=True)
class JoinPredicate:
    """An equi-join ``left = right`` between columns of two tables."""

    left: ColumnRef
    right: ColumnRef

    def __post_init__(self) -> None:
        if self.left.table == self.right.table:
            raise ValueError("join predicate must span two tables")

    def touches(self, table: str) -> bool:
        return table in (self.left.table, self.right.table)

    def column_on(self, table: str) -> ColumnRef:
        if self.left.table == table:
            return self.left
        if self.right.table == table:
            return self.right
        raise ValueError(f"join {self} does not touch table {table!r}")

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


@dataclass(frozen=True)
class OrderBy:
    """ORDER BY over columns of a single table (ascending)."""

    columns: Tuple[ColumnRef, ...]

    def __post_init__(self) -> None:
        if not self.columns:
            raise ValueError("ORDER BY needs at least one column")
        tables = {c.table for c in self.columns}
        if len(tables) != 1:
            raise ValueError("ORDER BY columns must come from a single table")

    @property
    def table(self) -> str:
        return self.columns[0].table


@dataclass(frozen=True)
class SelectQuery:
    """A conjunctive select-project-join query.

    ``projection`` empty means ``count(*)`` (the benchmark's common shape).
    """

    tables: Tuple[str, ...]
    predicates: Tuple[TablePredicate, ...] = ()
    joins: Tuple[JoinPredicate, ...] = ()
    projection: Tuple[ColumnRef, ...] = ()
    order_by: Optional[OrderBy] = None

    _hash = None
    __hash__ = _hash_once
    __reduce__ = _rebuild

    def __post_init__(self) -> None:
        if not self.tables:
            raise ValueError("query must reference at least one table")
        if len(set(self.tables)) != len(self.tables):
            raise ValueError("duplicate table references are not supported")
        known = set(self.tables)
        for pred in self.predicates:
            if pred.table not in known:
                raise ValueError(f"predicate {pred} on unreferenced table")
        for join in self.joins:
            if join.left.table not in known or join.right.table not in known:
                raise ValueError(f"join {join} on unreferenced table")
        for col in self.projection:
            if col.table not in known:
                raise ValueError(f"projected column {col} on unreferenced table")
        if self.order_by is not None and self.order_by.table not in known:
            raise ValueError("ORDER BY on unreferenced table")

    @property
    def is_update(self) -> bool:
        return False

    def tables_referenced(self) -> Tuple[str, ...]:
        return self.tables

    def predicates_on(self, table: str) -> Tuple[TablePredicate, ...]:
        return tuple(p for p in self.predicates if p.table == table)

    def joins_on(self, table: str) -> Tuple[JoinPredicate, ...]:
        return tuple(j for j in self.joins if j.touches(table))

    def columns_needed(self, table: str) -> FrozenSet[str]:
        """Columns of ``table`` the plan must produce (for covering checks)."""
        needed = {c.column for c in self.projection if c.table == table}
        needed.update(p.column.column for p in self.predicates if p.table == table)
        needed.update(
            j.column_on(table).column for j in self.joins if j.touches(table)
        )
        if self.order_by is not None and self.order_by.table == table:
            needed.update(c.column for c in self.order_by.columns)
        return frozenset(needed)


@dataclass(frozen=True)
class UpdateStatement:
    """``UPDATE table SET set_columns WHERE predicates`` (single table)."""

    table: str
    set_columns: Tuple[str, ...]
    predicates: Tuple[TablePredicate, ...] = ()

    _hash = None
    __hash__ = _hash_once
    __reduce__ = _rebuild

    def __post_init__(self) -> None:
        if not self.set_columns:
            raise ValueError("UPDATE must set at least one column")
        for pred in self.predicates:
            if pred.table != self.table:
                raise ValueError(f"predicate {pred} on table other than {self.table}")

    @property
    def is_update(self) -> bool:
        return True

    def tables_referenced(self) -> Tuple[str, ...]:
        return (self.table,)

    def predicates_on(self, table: str) -> Tuple[TablePredicate, ...]:
        return self.predicates if table == self.table else ()

    def columns_needed(self, table: str) -> FrozenSet[str]:
        if table != self.table:
            return frozenset()
        needed = set(self.set_columns)
        needed.update(p.column.column for p in self.predicates)
        return frozenset(needed)


@dataclass(frozen=True)
class InsertStatement:
    """``INSERT INTO table`` of ``row_count`` rows (bulk or single)."""

    table: str
    row_count: int = 1

    _hash = None
    __hash__ = _hash_once
    __reduce__ = _rebuild

    def __post_init__(self) -> None:
        if self.row_count < 1:
            raise ValueError("row_count must be >= 1")

    @property
    def is_update(self) -> bool:
        return True

    def tables_referenced(self) -> Tuple[str, ...]:
        return (self.table,)

    def predicates_on(self, table: str) -> Tuple[TablePredicate, ...]:
        return ()

    def columns_needed(self, table: str) -> FrozenSet[str]:
        return frozenset()


@dataclass(frozen=True)
class DeleteStatement:
    """``DELETE FROM table WHERE predicates``."""

    table: str
    predicates: Tuple[TablePredicate, ...] = ()

    _hash = None
    __hash__ = _hash_once
    __reduce__ = _rebuild

    def __post_init__(self) -> None:
        for pred in self.predicates:
            if pred.table != self.table:
                raise ValueError(f"predicate {pred} on table other than {self.table}")

    @property
    def is_update(self) -> bool:
        return True

    def tables_referenced(self) -> Tuple[str, ...]:
        return (self.table,)

    def predicates_on(self, table: str) -> Tuple[TablePredicate, ...]:
        return self.predicates if table == self.table else ()

    def columns_needed(self, table: str) -> FrozenSet[str]:
        if table != self.table:
            return frozenset()
        return frozenset(p.column.column for p in self.predicates)


Statement = Union[SelectQuery, UpdateStatement, InsertStatement, DeleteStatement]
