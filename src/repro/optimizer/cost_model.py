# reprolint: zone=deterministic
"""Whole-statement costing: the analytical stand-in for DB2's optimizer.

:class:`CostModel` holds the statistics, the cost constants and the
per-table access-path enumerator that
:class:`~repro.optimizer.template.PlanTemplate` compiles a statement's plan
space from; the template's search prices ``cost(q, X)``, the primitive of
the paper (§2), and renders the chosen plan as a :class:`QueryPlan`.
Maintenance charges for write statements are priced here directly.

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

from dataclasses import dataclass, field
from typing import AbstractSet, List, Optional, Tuple

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
from .selectivity import selectivity_by_column

__all__ = ["CostModel", "CostModelConfig", "QueryPlan", "JoinStep", "MaintenanceItem"]


@dataclass(frozen=True)
class CostModelConfig:
    """Constants for join/sort costing and optional plan features."""

    hash_cpu_per_row: float = 0.002     # build+probe work per row
    output_cpu_per_row: float = 0.0005  # per produced join output row
    sort_cpu_per_row: float = 0.0008    # per row per log2 level
    inlj_lookup_cost: float = 1.5       # per outer row: traverse + fetch
    # Index-nested-loop joins, off for benchmarks. Each alternative probes
    # an index on the step's inner table, so costs stay table-separable:
    # a table's access path and join method read only its own indices.
    enable_inlj: bool = False

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
    """The statistics, cost constants and access-path enumerator that a
    :class:`~repro.optimizer.template.PlanTemplate` prices plans from."""

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

    @staticmethod
    def connecting_join(
        query: SelectQuery, joined: AbstractSet[str], table: str
    ) -> Optional[JoinPredicate]:
        """The join predicate linking ``table`` to the already-joined set.

        Public because :mod:`repro.optimizer.template` builds the greedy
        join order with it, and the tests' scalar reference search must
        agree on which predicate connects each step.
        """
        for join in query.joins:
            if join.touches(table):
                other = join.left.table if join.right.table == table else join.right.table
                if other in joined:
                    return join
        return None

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
