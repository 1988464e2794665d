# reprolint: zone=deterministic
"""Whole-statement costing: the analytical stand-in for DB2's optimizer.

``CostModel.statement_cost(stmt, X)`` prices the best physical plan for a
statement under hypothetical index configuration ``X`` — the ``cost(q, X)``
primitive of the paper (§2). ``explain`` returns the chosen plan for
inspection.

Design constraints inherited from the paper:

* **Monotonicity**: adding an index never increases a query's cost (more
  plans available), and never decreases an update's maintenance overhead.
* **Interactions** happen within a table (alternative paths, intersections).
  With the default hash-join-only configuration, contributions of different
  tables are additive, so Eq. (2.1) of the paper holds exactly with the
  per-table partition; enabling index-nested-loop joins introduces
  cross-table interactions (exercised by tests, off for the benchmark).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..db.index import Index, IndexSizer
from ..db.stats import StatsRepository
from ..query.ast import (
    DeleteStatement,
    InsertStatement,
    JoinPredicate,
    SelectQuery,
    Statement,
    UpdateStatement,
)
from .access import AccessCostModel, AccessCosts, AccessPath
from .selectivity import join_selectivity, selectivity_by_column

__all__ = ["CostModel", "CostModelConfig", "QueryPlan", "JoinStep", "MaintenanceItem"]


@dataclass(frozen=True)
class CostModelConfig:
    """Constants for join/sort costing and optional plan features."""

    hash_cpu_per_row: float = 0.002     # build+probe work per row
    output_cpu_per_row: float = 0.0005  # per produced join output row
    sort_cpu_per_row: float = 0.0008    # per row per log2 level
    inlj_lookup_cost: float = 1.5       # per outer row: traverse + fetch
    enable_inlj: bool = False           # index-nested-loop joins (cross-table
                                        # interactions) — off for benchmarks

    access: AccessCosts = field(default_factory=AccessCosts)


@dataclass(frozen=True)
class JoinStep:
    """One step of the left-deep join pipeline."""

    inner_table: str
    method: str              # "hash" or "index-nested-loop"
    cost: float
    output_rows: float
    index: Optional[Index] = None


@dataclass(frozen=True)
class MaintenanceItem:
    """Index maintenance charge incurred by an update statement."""

    index: Index
    cost: float


@dataclass(frozen=True)
class QueryPlan:
    """The physical plan chosen for a statement under some configuration."""

    statement: Statement
    access_paths: Tuple[Tuple[str, AccessPath], ...]
    join_steps: Tuple[JoinStep, ...] = ()
    sort_cost: float = 0.0
    write_cost: float = 0.0
    maintenance: Tuple[MaintenanceItem, ...] = ()

    @property
    def total_cost(self) -> float:
        return (
            sum(path.cost for _, path in self.access_paths)
            + sum(step.cost for step in self.join_steps)
            + self.sort_cost
            + self.write_cost
            + sum(item.cost for item in self.maintenance)
        )

    def describe(self) -> str:
        """Multi-line human-readable plan summary."""
        lines: List[str] = []
        for table, path in self.access_paths:
            lines.append(f"access {table}: {path.describe()} cost={path.cost:.1f}")
        for step in self.join_steps:
            via = f" via {step.index.name}" if step.index else ""
            lines.append(
                f"join {step.inner_table} ({step.method}{via}) cost={step.cost:.1f}"
            )
        if self.sort_cost > 0:
            lines.append(f"sort cost={self.sort_cost:.1f}")
        if self.write_cost > 0:
            lines.append(f"write cost={self.write_cost:.1f}")
        for item in self.maintenance:
            lines.append(f"maintain {item.index.name} cost={item.cost:.1f}")
        lines.append(f"total={self.total_cost:.1f}")
        return "\n".join(lines)


class CostModel:
    """Prices statements against a :class:`~repro.db.stats.StatsRepository`."""

    def __init__(
        self,
        stats: StatsRepository,
        config: Optional[CostModelConfig] = None,
    ) -> None:
        self._stats = stats
        self.config = config if config is not None else CostModelConfig()
        self._sizer = IndexSizer(stats)
        self._access = AccessCostModel(stats, self._sizer, self.config.access)

    @property
    def stats(self) -> StatsRepository:
        return self._stats

    @property
    def sizer(self) -> IndexSizer:
        return self._sizer

    @property
    def access_model(self) -> AccessCostModel:
        """The per-table access-path enumerator (shared with plan templates)."""
        return self._access

    # -- select ------------------------------------------------------------

    def _select_plan(self, query: SelectQuery, config: AbstractSet[Index]) -> QueryPlan:
        col_sel: Dict[str, Dict] = {}
        access_paths: List[Tuple[str, AccessPath]] = []
        path_by_table: Dict[str, AccessPath] = {}
        for table in query.tables:
            sels = selectivity_by_column(self._stats, query.predicates_on(table))
            col_sel[table] = dict(sels)
            path = self._access.best_path(
                table,
                sels,
                query.columns_needed(table),
                config,
            )
            path_by_table[table] = path

        join_steps: List[JoinStep] = []
        if len(query.tables) == 1:
            table = query.tables[0]
            access_paths.append((table, path_by_table[table]))
            current_rows = path_by_table[table].output_rows
        else:
            current_rows, access_paths, join_steps = self._order_joins(
                query, path_by_table, config
            )

        sort_cost = self._sort_cost(query, path_by_table, current_rows)
        return QueryPlan(
            statement=query,
            access_paths=tuple(access_paths),
            join_steps=tuple(join_steps),
            sort_cost=sort_cost,
        )

    def _order_joins(
        self,
        query: SelectQuery,
        path_by_table: Dict[str, AccessPath],
        config: AbstractSet[Index],
    ) -> Tuple[float, List[Tuple[str, AccessPath]], List[JoinStep]]:
        """Greedy left-deep join order, smallest estimated input first.

        The join *order* depends only on cardinalities (never on available
        indices), which keeps cost contributions of different tables additive
        under hash joins.
        """
        remaining = set(query.tables)
        first = min(
            remaining,
            key=lambda t: (path_by_table[t].output_rows, t),
        )
        remaining.remove(first)
        joined = {first}
        current_rows = path_by_table[first].output_rows
        access_paths: List[Tuple[str, AccessPath]] = [(first, path_by_table[first])]
        join_steps: List[JoinStep] = []

        while remaining:
            best: Optional[Tuple[float, str, Optional[JoinPredicate]]] = None
            for table in sorted(remaining):
                join_pred = self.connecting_join(query, joined, table)
                if join_pred is None:
                    out = current_rows * path_by_table[table].output_rows
                else:
                    inner_col = join_pred.column_on(table)
                    outer_col = (
                        join_pred.left
                        if join_pred.right.table == table
                        else join_pred.right
                    )
                    sel = join_selectivity(
                        self._stats,
                        outer_col.table, outer_col.column,
                        table, inner_col.column,
                    )
                    out = current_rows * path_by_table[table].output_rows * sel
                key = (out, table)
                if best is None or key < (best[0], best[1]):
                    best = (out, table, join_pred)
            if best is None:
                raise RuntimeError("join enumeration found no next table")
            out_rows, table, join_pred = best
            remaining.remove(table)
            joined.add(table)

            inner_path = path_by_table[table]
            hash_cost = (
                inner_path.cost
                + (current_rows + inner_path.output_rows) * self.config.hash_cpu_per_row
                + out_rows * self.config.output_cpu_per_row
            )
            step_cost = hash_cost
            method = "hash"
            used_index: Optional[Index] = None
            scan_inner = True
            if self.config.enable_inlj and join_pred is not None:
                inner_col = join_pred.column_on(table).column
                for index in sorted(ix for ix in config if ix.table == table):
                    if index.leading_column != inner_col:
                        continue
                    lookup = current_rows * (
                        self._sizer.height(index) + self.config.inlj_lookup_cost
                    )
                    inlj_cost = lookup + out_rows * self.config.output_cpu_per_row
                    if inlj_cost < step_cost:
                        step_cost = inlj_cost
                        method = "index-nested-loop"
                        used_index = index
                        scan_inner = False
            if scan_inner:
                access_paths.append((table, inner_path))
                step_cost -= inner_path.cost if method == "hash" else 0.0
            join_steps.append(JoinStep(
                inner_table=table,
                method=method,
                cost=step_cost,
                output_rows=out_rows,
                index=used_index,
            ))
            current_rows = out_rows
        return current_rows, access_paths, join_steps

    @staticmethod
    def connecting_join(
        query: SelectQuery, joined: AbstractSet[str], table: str
    ) -> Optional[JoinPredicate]:
        """The join predicate linking ``table`` to the already-joined set.

        Public because :mod:`repro.optimizer.template` replays the same
        greedy join-order construction when building a plan template; both
        must agree on which predicate connects each step.
        """
        for join in query.joins:
            if join.touches(table):
                other = join.left.table if join.right.table == table else join.right.table
                if other in joined:
                    return join
        return None

    def _sort_cost(
        self,
        query: SelectQuery,
        path_by_table: Dict[str, AccessPath],
        output_rows: float,
    ) -> float:
        if query.order_by is None:
            return 0.0
        wanted = tuple(c.column for c in query.order_by.columns)
        if len(query.tables) == 1:
            path = path_by_table[query.tables[0]]
            if path.sorted_columns[: len(wanted)] == wanted:
                return 0.0  # index delivers the order
        rows = max(output_rows, 1.0)
        return rows * math.log2(rows + 2.0) * self.config.sort_cpu_per_row

    # -- updates -------------------------------------------------------------

    def _update_plan(self, stmt: UpdateStatement, config: AbstractSet[Index]) -> QueryPlan:
        sels = selectivity_by_column(self._stats, stmt.predicates)
        path = self._access.best_path(
            stmt.table,
            sels,
            stmt.columns_needed(stmt.table),
            config,
            allow_index_only=False,  # must fetch heap rows to modify them
        )
        affected = path.output_rows
        write_cost = affected * self.config.access.write_per_row
        maintenance: List[MaintenanceItem] = []
        set_columns = set(stmt.set_columns)
        for index in sorted(ix for ix in config if ix.table == stmt.table):
            key_change = bool(set_columns.intersection(index.columns))
            cost = self._access.index_maintenance_cost(index, affected, key_change)
            if cost > 0:
                maintenance.append(MaintenanceItem(index, cost))
        return QueryPlan(
            statement=stmt,
            access_paths=((stmt.table, path),),
            write_cost=write_cost,
            maintenance=tuple(maintenance),
        )

    def _delete_plan(self, stmt: DeleteStatement, config: AbstractSet[Index]) -> QueryPlan:
        sels = selectivity_by_column(self._stats, stmt.predicates)
        path = self._access.best_path(
            stmt.table,
            sels,
            stmt.columns_needed(stmt.table),
            config,
            allow_index_only=False,
        )
        affected = path.output_rows
        write_cost = affected * self.config.access.write_per_row
        maintenance = [
            MaintenanceItem(
                index,
                self._access.index_maintenance_cost(index, affected, key_change=True),
            )
            for index in sorted(ix for ix in config if ix.table == stmt.table)
        ]
        maintenance = [m for m in maintenance if m.cost > 0]
        return QueryPlan(
            statement=stmt,
            access_paths=((stmt.table, path),),
            write_cost=write_cost,
            maintenance=tuple(maintenance),
        )

    def _insert_plan(self, stmt: InsertStatement, config: AbstractSet[Index]) -> QueryPlan:
        rows = float(stmt.row_count)
        write_cost = rows * self.config.access.write_per_row
        maintenance = [
            MaintenanceItem(
                index,
                self._access.index_maintenance_cost(index, rows, key_change=True),
            )
            for index in sorted(ix for ix in config if ix.table == stmt.table)
        ]
        maintenance = [m for m in maintenance if m.cost > 0]
        return QueryPlan(
            statement=stmt,
            access_paths=(),
            write_cost=write_cost,
            maintenance=tuple(maintenance),
        )

    # -- public API ----------------------------------------------------------

    def explain(self, statement: Statement, config: AbstractSet[Index]) -> QueryPlan:
        """The best plan for ``statement`` under hypothetical config ``config``."""
        if isinstance(statement, SelectQuery):
            return self._select_plan(statement, config)
        if isinstance(statement, UpdateStatement):
            return self._update_plan(statement, config)
        if isinstance(statement, DeleteStatement):
            return self._delete_plan(statement, config)
        if isinstance(statement, InsertStatement):
            return self._insert_plan(statement, config)
        raise TypeError(f"cannot cost statement of type {type(statement).__name__}")

    def statement_cost(self, statement: Statement, config: AbstractSet[Index]) -> float:
        """``cost(q, X)``: cost of the best plan under configuration ``config``."""
        return self.explain(statement, config).total_cost

    def maintenance_cost(self, statement: Statement, index: Index) -> float:
        """Maintenance charge ``index`` adds to ``statement`` if materialized.

        This charge is *additive and configuration-independent*: affected-row
        estimates depend only on the statement's predicates, never on which
        access path is chosen. The IBG machinery exploits this to avoid
        exponential used-sets on write statements.
        """
        if isinstance(statement, SelectQuery):
            return 0.0
        if index.table != statement.tables_referenced()[0]:
            return 0.0
        access = self._access
        if isinstance(statement, InsertStatement):
            return access.index_maintenance_cost(
                index, float(statement.row_count), key_change=True
            )
        sels = selectivity_by_column(self._stats, statement.predicates)
        residual = 1.0
        for sel, _ in sels.values():
            residual *= sel
        affected = self._stats.row_count(statement.table) * residual
        if isinstance(statement, DeleteStatement):
            return access.index_maintenance_cost(index, affected, key_change=True)
        if not isinstance(statement, UpdateStatement):
            raise TypeError(f"unsupported statement type: {type(statement).__name__}")
        key_change = bool(set(statement.set_columns) & set(index.columns))
        return access.index_maintenance_cost(index, affected, key_change)
