# reprolint: zone=deterministic
"""Access-path enumeration and costing for a single table.

This is where *index interactions* originate, exactly as the paper motivates
(§2): two indices on the same table interact when they are intersected in a
physical plan, or when they compete as alternative access paths so that the
benefit of one is masked by the presence of the other. Indices on different
tables never interact in this module.

All costs are in page-read-equivalent units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import AbstractSet, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..db.index import Index, IndexSizer
from ..db.stats import StatsRepository

__all__ = ["AccessPath", "AccessCostModel", "AccessCosts"]


@dataclass(frozen=True)
class AccessPath:
    """One priced way of reading the qualifying rows of a table.

    Attributes
    ----------
    kind:
        ``"table-scan"``, ``"index-scan"``, ``"index-only-scan"`` or
        ``"index-intersection"``.
    indexes:
        Indices used by the path (empty for a table scan).
    cost:
        Page-read-equivalent cost of the path.
    output_rows:
        Estimated qualifying rows produced.
    sorted_columns:
        Leading key columns the output is ordered by (enables sort
        avoidance for ORDER BY).
    """

    kind: str
    indexes: Tuple[Index, ...]
    cost: float
    output_rows: float
    sorted_columns: Tuple[str, ...] = ()

    @property
    def selection_key(self) -> Tuple[float, str, List[str]]:
        """The deterministic order of a
        :class:`~repro.optimizer.template.PlanTemplate` menu: cheapest
        first, then kind, then index names. The first path a configuration
        provides is the one its plan uses."""
        return (self.cost, self.kind, [ix.name for ix in self.indexes])

    def describe(self) -> str:
        if not self.indexes:
            return self.kind
        return f"{self.kind}({', '.join(ix.name for ix in self.indexes)})"


@dataclass(frozen=True)
class AccessCosts:
    """Tunable constants of the access cost model (page-read units)."""

    cpu_per_row: float = 0.001          # predicate evaluation per scanned row
    random_fetch_per_row: float = 0.8   # heap fetch following a secondary index
    rid_sort_per_row: float = 0.002     # RID sort/merge work for intersections
    write_per_row: float = 0.05         # heap write during updates
    index_maint_per_row: float = 2.0    # B-tree entry delete+insert (plus height)

    # Matched-prefix selectivity above this threshold makes an index scan
    # pointless; the enumerator prunes it (the optimizer would too).
    max_useful_selectivity: float = 0.75


class AccessCostModel:
    """Enumerates and prices access paths for one table of a statement."""

    def __init__(
        self,
        stats: StatsRepository,
        sizer: Optional[IndexSizer] = None,
        costs: Optional[AccessCosts] = None,
    ) -> None:
        self._stats = stats
        self._sizer = sizer if sizer is not None else IndexSizer(stats)
        self.costs = costs if costs is not None else AccessCosts()

    # -- primitive costs ---------------------------------------------------

    def table_scan_cost(self, table: str) -> float:
        table_stats = self._stats.table_stats(table)
        return table_stats.page_count + table_stats.row_count * self.costs.cpu_per_row

    def _matched_prefix(
        self,
        index: Index,
        col_sel: Mapping[str, Tuple[float, bool]],
    ) -> Tuple[int, float]:
        """Longest sargable prefix of the index key and its selectivity.

        Equality predicates extend the prefix; a range predicate can only be
        the final matched column (standard B-tree matching rule).
        """
        matched = 0
        selectivity = 1.0
        for column in index.columns:
            entry = col_sel.get(column)
            if entry is None:
                break
            sel, is_eq = entry
            matched += 1
            selectivity *= sel
            if not is_eq:
                break
        return matched, selectivity

    def _index_scan_paths(
        self,
        table: str,
        index: Index,
        col_sel: Mapping[str, Tuple[float, bool]],
        needed_columns: FrozenSet[str],
        residual_selectivity: float,
        allow_index_only: bool,
    ) -> List[AccessPath]:
        table_stats = self._stats.table_stats(table)
        rows = table_stats.row_count
        pages = table_stats.page_count
        matched, matched_sel = self._matched_prefix(index, col_sel)
        covering = index.covers(tuple(needed_columns))
        if matched == 0 and not covering:
            return []
        if matched > 0 and matched_sel > self.costs.max_useful_selectivity and not covering:
            return []

        height = self._sizer.height(index)
        leaf_pages = self._sizer.leaf_pages(index)
        scan_fraction = matched_sel if matched > 0 else 1.0
        leaf_cost = max(1.0, scan_fraction * leaf_pages)
        traverse = float(height)
        matched_rows = scan_fraction * rows
        output_rows = max(rows * residual_selectivity, 0.0)
        paths: List[AccessPath] = []

        sorted_columns = index.columns[: matched or len(index.columns)]
        if allow_index_only and covering:
            cost = traverse + leaf_cost + matched_rows * self.costs.cpu_per_row
            paths.append(AccessPath(
                kind="index-only-scan",
                indexes=(index,),
                cost=cost,
                output_rows=output_rows,
                sorted_columns=index.columns,
            ))
        if matched > 0:
            fetch = min(
                matched_rows * self.costs.random_fetch_per_row,
                float(pages),
            )
            cost = (
                traverse
                + leaf_cost
                + fetch
                + matched_rows * self.costs.cpu_per_row
            )
            paths.append(AccessPath(
                kind="index-scan",
                indexes=(index,),
                cost=cost,
                output_rows=output_rows,
                sorted_columns=sorted_columns,
            ))
        return paths

    def _intersection_paths(
        self,
        table: str,
        indices: Sequence[Index],
        col_sel: Mapping[str, Tuple[float, bool]],
        residual_selectivity: float,
    ) -> List[AccessPath]:
        """Two-way RID-intersection plans (the paper's canonical interaction)."""
        table_stats = self._stats.table_stats(table)
        rows = table_stats.row_count
        pages = table_stats.page_count
        usable: List[Tuple[Index, float, float]] = []
        for index in indices:
            matched, sel = self._matched_prefix(index, col_sel)
            if matched == 0 or sel >= 1.0:
                continue
            height = self._sizer.height(index)
            leaf = max(1.0, sel * self._sizer.leaf_pages(index))
            probe_cost = height + leaf + sel * rows * self.costs.rid_sort_per_row
            usable.append((index, sel, probe_cost))
        paths: List[AccessPath] = []
        for i in range(len(usable)):
            for j in range(i + 1, len(usable)):
                ix_a, sel_a, cost_a = usable[i]
                ix_b, sel_b, cost_b = usable[j]
                if set(ix_a.columns[:1]) == set(ix_b.columns[:1]):
                    continue  # same leading column: intersection is pointless
                combined_sel = sel_a * sel_b
                fetch = min(
                    combined_sel * rows * self.costs.random_fetch_per_row,
                    float(pages),
                )
                cost = cost_a + cost_b + fetch
                output_rows = rows * residual_selectivity
                first, second = sorted((ix_a, ix_b))
                paths.append(AccessPath(
                    kind="index-intersection",
                    indexes=(first, second),
                    cost=cost,
                    output_rows=output_rows,
                ))
        return paths

    # -- public API ----------------------------------------------------------

    def enumerate_paths(
        self,
        table: str,
        col_sel: Mapping[str, Tuple[float, bool]],
        needed_columns: FrozenSet[str],
        indices: AbstractSet[Index],
        allow_index_only: bool = True,
    ) -> List[AccessPath]:
        """All candidate access paths for ``table`` under configuration ``indices``."""
        table_stats = self._stats.table_stats(table)
        residual = 1.0
        for sel, _ in col_sel.values():
            residual *= sel
        output_rows = table_stats.row_count * residual
        paths: List[AccessPath] = [AccessPath(
            kind="table-scan",
            indexes=(),
            cost=self.table_scan_cost(table),
            output_rows=output_rows,
        )]
        on_table = sorted(ix for ix in indices if ix.table == table)
        for index in on_table:
            paths.extend(self._index_scan_paths(
                table, index, col_sel, needed_columns, residual, allow_index_only
            ))
        paths.extend(self._intersection_paths(table, on_table, col_sel, residual))
        return paths

    # -- update maintenance --------------------------------------------------

    def index_maintenance_cost(
        self, index: Index, affected_rows: float, key_change: bool
    ) -> float:
        """Cost for one index to absorb ``affected_rows`` modified rows.

        ``key_change`` is True when the statement modifies a key column of
        this index (or inserts/deletes rows), requiring a delete+insert per
        row; otherwise maintenance is free (heap-only update).
        """
        if not key_change or affected_rows <= 0:
            return 0.0
        height = self._sizer.height(index)
        return affected_rows * (height + self.costs.index_maint_per_row)
