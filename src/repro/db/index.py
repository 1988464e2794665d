"""Secondary index model: definitions and physical size estimates.

An :class:`Index` is the atomic unit that WFA/WFIT reason about; it is a
hashable value object so it can live in frozensets (configurations) and in
dictionary keys. Physical sizing (:class:`IndexSizer`) feeds both the access
path cost model and the create/drop transition costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from .stats import PAGE_SIZE, StatsRepository

__all__ = ["Index", "IndexSizer", "RID_WIDTH"]

#: Bytes per row identifier stored in index leaf entries.
RID_WIDTH = 8


@dataclass(frozen=True, order=True)
class Index:
    """A secondary B-tree index over ``columns`` of ``table``.

    The natural ordering (``order=True``) gives a deterministic global order
    used for tie-breaking in WFA (Appendix B of the paper) and for stable
    display output. The hash is the generated dataclass one, computed once
    per object.
    """

    table: str
    columns: Tuple[str, ...]

    _hash = None  # the cached hash; None until first computed

    def __post_init__(self) -> None:
        if self.table.count(".") != 1:
            raise ValueError(f"index table must be qualified: {self.table!r}")
        if not self.columns:
            raise ValueError("index must have at least one column")
        if len(set(self.columns)) != len(self.columns):
            raise ValueError(f"duplicate columns in index: {self.columns!r}")

    def __hash__(self) -> int:
        # Indices key every configuration, memo and statistics table, so
        # the field-tuple hash is computed once and kept on the object.
        value = self._hash
        if value is None:
            value = hash((self.table, self.columns))
            object.__setattr__(self, "_hash", value)
        return value

    def __reduce__(self):
        # Pickle and copy through the constructor: str hashes are salted
        # per process, so the cached hash must not travel with the index.
        return (type(self), (self.table, self.columns))

    @property
    def name(self) -> str:
        """Human-readable identifier, e.g. ``ix_lineitem_l_shipdate``."""
        table_part = self.table.split(".", 1)[1]
        return "ix_" + table_part + "_" + "_".join(self.columns)

    @property
    def leading_column(self) -> str:
        return self.columns[0]

    def covers(self, needed: Tuple[str, ...]) -> bool:
        """Whether every column in ``needed`` is stored in the index key."""
        key = set(self.columns)
        return all(col in key for col in needed)

    # -- checkpoint payloads ------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        """JSON-ready representation, for checkpoint documents."""
        return {"table": self.table, "columns": list(self.columns)}

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "Index":
        return cls(
            table=str(payload["table"]),
            columns=tuple(str(c) for c in payload["columns"]),
        )

    def __str__(self) -> str:
        return f"{self.table}({', '.join(self.columns)})"


class IndexSizer:
    """Physical size/shape estimates for indices, from catalog statistics.

    Every estimate is a function of the index, its table's schema and its
    table's statistics, which a :class:`StatsRepository` adds once and
    never replaces; so the per-index facts the cost model asks for on
    every plan-template build (entries per page, leaf pages, height) are
    memoized per index.
    """

    #: Typical B-tree fill factor for freshly built indexes.
    FILL_FACTOR = 0.9

    def __init__(self, stats: StatsRepository) -> None:
        self._stats = stats
        self._entries_per_page: Dict[Index, int] = {}
        self._leaf_pages: Dict[Index, int] = {}
        self._height: Dict[Index, int] = {}

    def entry_width(self, index: Index) -> int:
        """Bytes per leaf entry: key columns plus a row identifier."""
        table = self._stats.catalog.table(index.table)
        key_width = sum(table.column(c).byte_width for c in index.columns)
        return key_width + RID_WIDTH

    def entries_per_page(self, index: Index) -> int:
        found = self._entries_per_page.get(index)
        if found is None:
            usable = int(PAGE_SIZE * self.FILL_FACTOR)
            found = max(1, usable // self.entry_width(index))
            self._entries_per_page[index] = found
        return found

    def leaf_pages(self, index: Index) -> int:
        found = self._leaf_pages.get(index)
        if found is None:
            rows = self._stats.row_count(index.table)
            found = max(1, -(-rows // self.entries_per_page(index)))
            self._leaf_pages[index] = found
        return found

    def height(self, index: Index) -> int:
        """Levels above the leaves (root counts as one level)."""
        found = self._height.get(index)
        if found is None:
            fanout = max(2, self.entries_per_page(index))
            leaves = self.leaf_pages(index)
            found = 1 if leaves <= 1 else max(
                1, math.ceil(math.log(leaves, fanout))
            )
            self._height[index] = found
        return found

    def size_pages(self, index: Index) -> int:
        """Total pages including the (geometrically small) inner levels."""
        leaves = self.leaf_pages(index)
        fanout = max(2, self.entries_per_page(index))
        inner = 0
        level = leaves
        while level > 1:
            level = -(-level // fanout)
            inner += level
        return leaves + inner
