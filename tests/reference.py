"""Reference implementations the production kernels are checked against.

Three pieces of the pre-kernel code, kept verbatim in their pricing and
arithmetic so equivalence tests can compare with ``==``, plus one oracle:

* **The scalar plan search** (:class:`ReferenceCostModel`,
  :func:`best_path`): per call, it enumerates every access path of every
  table under a frozenset configuration, walks the greedy left-deep join
  order, picks hash or index-nested-loop per step, and adds the sort, heap
  write and maintenance terms. :class:`~repro.optimizer.template.PlanTemplate`
  does the configuration-independent part once per statement and must
  reproduce these plans to the last bit
  (``tests/optimizer/test_template_property.py``). It sizes indices with
  :class:`ReferenceIndexSizer`.
* **The index sizer without its memo** (:class:`ReferenceIndexSizer`):
  entries per page, leaf pages and height recomputed on every call.
  ``tests/db/test_index_model.py`` compares it with the memoized
  :class:`~repro.db.index.IndexSizer`.
* **The frozenset Work Function Algorithm** (:class:`ReferenceWFA`), the
  seed WFA before the bitset kernel. ``tests/core/test_kernel_equivalence.py``
  replays workloads through it and the kernel-backed
  :class:`~repro.core.wfa.WFA` and requires identical recommendations and
  work-function values at every step.
* **Exact OPT** (:func:`brute_force_opt`): the offline optimum over the
  unpartitioned ``2^C`` space, which ``tests/core/test_opt.py`` and
  ``tests/core/test_competitive.py`` hold the partitioned
  :class:`~repro.core.opt.OfflineOptimizer` and WFA's bounds against.

``benchmarks/bench_kernel.py`` prices its seed rows with all three: every
configuration is materialized as a ``frozenset`` per cost lookup and every
δ is a Python-level walk over the part's indices. Do not "optimize" this
module; its slowness is the seed baseline.
"""

from __future__ import annotations

import math
from typing import (
    AbstractSet, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple,
)

from repro.core.opt import OfflineOptimizer, OptimalSchedule
from repro.core.wfa import CostFunction
from repro.db.index import Index, IndexSizer
from repro.db.stats import PAGE_SIZE
from repro.optimizer.access import AccessCostModel, AccessPath
from repro.optimizer.cost_model import (
    CostModel,
    JoinStep,
    MaintenanceItem,
    QueryPlan,
)
from repro.optimizer.selectivity import join_selectivity, selectivity_by_column
from repro.query.ast import (
    DeleteStatement,
    InsertStatement,
    JoinPredicate,
    SelectQuery,
    Statement,
    UpdateStatement,
)

__all__ = [
    "ReferenceCostModel",
    "ReferenceIndexSizer",
    "ReferenceWFA",
    "best_path",
    "brute_force_opt",
    "plan_indices",
    "used_indices",
]


# ---------------------------------------------------------------------------
# The scalar plan search
# ---------------------------------------------------------------------------

def best_path(
    access: AccessCostModel,
    table: str,
    col_sel: Mapping[str, Tuple[float, bool]],
    needed_columns: FrozenSet[str],
    indices: AbstractSet[Index],
    allow_index_only: bool = True,
) -> AccessPath:
    """Cheapest access path, with deterministic tie-breaking."""
    paths = access.enumerate_paths(
        table, col_sel, needed_columns, indices, allow_index_only
    )
    return min(paths, key=lambda p: p.selection_key)


def plan_indices(plan: QueryPlan) -> FrozenSet[Index]:
    """Indices the chosen *plan* depends on (access paths and joins)."""
    used = set()
    for _, path in plan.access_paths:
        used.update(path.indexes)
    for step in plan.join_steps:
        if step.index is not None:
            used.add(step.index)
    return frozenset(used)


def used_indices(plan: QueryPlan) -> FrozenSet[Index]:
    """Indices the plan's cost depends on: :func:`plan_indices` plus the
    maintenance-paying ones. Removing any other index from the
    configuration leaves the cost unchanged."""
    used = set(plan_indices(plan))
    for item in plan.maintenance:
        used.add(item.index)
    return frozenset(used)


class ReferenceIndexSizer(IndexSizer):
    """:class:`IndexSizer` as the seed had it: every per-index fact is
    computed afresh on every call."""

    def entries_per_page(self, index: Index) -> int:
        usable = int(PAGE_SIZE * self.FILL_FACTOR)
        return max(1, usable // self.entry_width(index))

    def leaf_pages(self, index: Index) -> int:
        rows = self._stats.row_count(index.table)
        return max(1, -(-rows // self.entries_per_page(index)))

    def height(self, index: Index) -> int:
        fanout = max(2, self.entries_per_page(index))
        leaves = self.leaf_pages(index)
        if leaves <= 1:
            return 1
        return max(1, math.ceil(math.log(leaves, fanout)))


class ReferenceCostModel(CostModel):
    """:class:`CostModel` plus the scalar plan search over frozensets.

    It reads the model's private attributes, as the search did when it was
    part of :class:`CostModel`, so the seed rows of ``bench_kernel.py``
    time the same code, and it sizes indices with
    :class:`ReferenceIndexSizer`, as the seed did.
    """

    def __init__(self, stats, config=None) -> None:
        super().__init__(stats, config)
        self._sizer = ReferenceIndexSizer(stats)
        self._access = AccessCostModel(stats, self._sizer, self.config.access)

    # -- select ------------------------------------------------------------

    def _select_plan(self, query: SelectQuery, config: AbstractSet[Index]) -> QueryPlan:
        col_sel: Dict[str, Dict] = {}
        access_paths: List[Tuple[str, AccessPath]] = []
        path_by_table: Dict[str, AccessPath] = {}
        for table in query.tables:
            sels = selectivity_by_column(self._stats, query.predicates_on(table))
            col_sel[table] = dict(sels)
            path = best_path(
                self._access,
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
        path = best_path(
            self._access,
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
        path = best_path(
            self._access,
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
                self._access.index_maintenance_cost(
                    index, affected, key_change=True
                ),
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
                self._access.index_maintenance_cost(
                    index, rows, key_change=True
                ),
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

    # -- entry points --------------------------------------------------------

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


# ---------------------------------------------------------------------------
# The frozenset Work Function Algorithm
# ---------------------------------------------------------------------------

#: Absolute tolerance for float comparisons of work-function values (same
#: constant as the kernel implementation).
_EPS = 1e-7


class ReferenceWFA:
    """Seed (frozenset) Work Function Algorithm over one part.

    Semantics are those of :class:`repro.core.wfa.WFA` (Figure 3 with the
    Appendix-B tie-break, feedback per Figure 4); only the configuration
    representation differs.
    """

    def __init__(
        self,
        indices: Sequence[Index],
        initial_config: AbstractSet[Index],
        cost_fn: CostFunction,
        transitions,
        work_values: Optional[Dict[FrozenSet[Index], float]] = None,
        recommendation: Optional[AbstractSet[Index]] = None,
    ) -> None:
        self._indices: Tuple[Index, ...] = tuple(sorted(set(indices)))
        if len(self._indices) > 20:
            raise ValueError(
                f"part of {len(self._indices)} indices would need "
                f"{1 << len(self._indices)} states; repartition first"
            )
        self._bit_of: Dict[Index, int] = {
            ix: 1 << i for i, ix in enumerate(self._indices)
        }
        self._cost_fn = cost_fn
        self._transitions = transitions
        self._create = [transitions.create_cost(ix) for ix in self._indices]
        self._drop = [transitions.drop_cost(ix) for ix in self._indices]
        self._size = 1 << len(self._indices)

        initial_mask = self._mask_of(initial_config)
        if work_values is not None:
            # Same warm-start validation as the kernel WFA (fixed in
            # lockstep): a silently defaulted w[S] = 0 marks S reachable
            # for free, and aliasing keys must not silently overlay.
            values: List[Optional[float]] = [None] * self._size
            for subset, value in work_values.items():
                mask = self._mask_of(subset)
                if values[mask] is not None:
                    raise ValueError(
                        "ambiguous work-function snapshot: two entries "
                        "project onto one configuration"
                    )
                values[mask] = float(value)
            missing = sum(1 for v in values if v is None)
            if missing:
                raise ValueError(
                    f"incomplete work-function snapshot: {missing} of "
                    f"{self._size} configurations have no value"
                )
            self._w = values  # type: ignore[assignment]
        else:
            self._w = [
                self._delta_masks(initial_mask, mask) for mask in range(self._size)
            ]
        if recommendation is not None:
            self._rec = self._mask_of(recommendation)
        else:
            self._rec = initial_mask
        self._statements_analyzed = 0

    # -- mask helpers --------------------------------------------------------

    def _mask_of(self, subset: AbstractSet[Index]) -> int:
        mask = 0
        for index in subset:
            bit = self._bit_of.get(index)
            if bit is not None:
                mask |= bit
        return mask

    def _set_of(self, mask: int) -> FrozenSet[Index]:
        return frozenset(
            ix for i, ix in enumerate(self._indices) if mask & (1 << i)
        )

    def _delta_masks(self, old: int, new: int) -> float:
        total = 0.0
        added = new & ~old
        dropped = old & ~new
        for i in range(len(self._indices)):
            bit = 1 << i
            if added & bit:
                total += self._create[i]
            elif dropped & bit:
                total += self._drop[i]
        return total

    @staticmethod
    def _lex_prefers(mask_a: int, mask_b: int) -> bool:
        """Appendix-B tie-break: prefer the set containing the lowest-order
        index where the two differ."""
        diff = mask_a ^ mask_b
        if diff == 0:
            return False
        lowest = diff & (-diff)
        return bool(mask_a & lowest)

    # -- public properties -----------------------------------------------------

    @property
    def indices(self) -> Tuple[Index, ...]:
        return self._indices

    @property
    def state_count(self) -> int:
        return self._size

    @property
    def statements_analyzed(self) -> int:
        return self._statements_analyzed

    def recommend(self) -> FrozenSet[Index]:
        return self._set_of(self._rec)

    def work_function(self) -> Dict[FrozenSet[Index], float]:
        return {self._set_of(mask): self._w[mask] for mask in range(self._size)}

    def work_value(self, subset: AbstractSet[Index]) -> float:
        return self._w[self._mask_of(subset)]

    def min_work(self) -> float:
        return min(self._w)

    # -- the algorithm -----------------------------------------------------------

    def _costs_of(self, statement: object) -> List[float]:
        return [
            self._cost_fn(statement, self._set_of(mask))
            for mask in range(self._size)
        ]

    def analyze_statement(self, statement: object) -> FrozenSet[Index]:
        """``WFA.analyzeQuery`` of Figure 3; returns the new recommendation."""
        size = self._size
        costs = self._costs_of(statement)
        w = self._w

        new_w = [w[mask] + costs[mask] for mask in range(size)]
        for i in range(len(self._indices)):
            bit = 1 << i
            create = self._create[i]
            drop = self._drop[i]
            for mask in range(size):
                if mask & bit:
                    continue
                with_bit = mask | bit
                lo, hi = new_w[mask], new_w[with_bit]
                alt_hi = lo + create
                if alt_hi < hi:
                    new_w[with_bit] = alt_hi
                alt_lo = hi + drop
                if alt_lo < lo:
                    new_w[mask] = alt_lo

        tolerance = [
            _EPS * max(1.0, abs(new_w[mask])) for mask in range(size)
        ]
        self_path = [
            abs(new_w[mask] - (w[mask] + costs[mask])) <= tolerance[mask]
            for mask in range(size)
        ]
        self._w = new_w
        self._statements_analyzed += 1

        best_mask: Optional[int] = None
        best_score = float("inf")
        for mask in range(size):
            if not self_path[mask]:
                continue
            score = new_w[mask] + self._delta_masks(mask, self._rec)
            if best_mask is None:
                best_mask, best_score = mask, score
                continue
            margin = _EPS * max(1.0, abs(score), abs(best_score))
            if score < best_score - margin:
                best_mask, best_score = mask, score
            elif abs(score - best_score) <= margin and self._lex_prefers(mask, best_mask):
                best_mask, best_score = mask, score
        if best_mask is None:
            # Unreachable numerically (the arg-min of stage 1 always keeps
            # its self path), but stay robust: plain minimum score, exact
            # ties resolved by the same Appendix-B rule as the main scan.
            best_mask = 0
            best_score = new_w[0] + self._delta_masks(0, self._rec)
            for mask in range(1, size):
                score = new_w[mask] + self._delta_masks(mask, self._rec)
                if score < best_score or (
                    score == best_score and self._lex_prefers(mask, best_mask)
                ):
                    best_mask, best_score = mask, score
        self._rec = best_mask
        return self.recommend()

    def scores(self) -> Dict[FrozenSet[Index], float]:
        return {
            self._set_of(mask): self._w[mask] + self._delta_masks(mask, self._rec)
            for mask in range(self._size)
        }

    # -- feedback (Figure 4, per-part body) -----------------------------------------

    def apply_feedback(
        self, f_plus: AbstractSet[Index], f_minus: AbstractSet[Index]
    ) -> FrozenSet[Index]:
        """Apply DBA votes to this part; returns the adjusted recommendation."""
        plus_mask = self._mask_of(f_plus)
        minus_mask = self._mask_of(f_minus)
        if plus_mask & minus_mask:
            raise ValueError("F+ and F- must be disjoint")
        new_rec = (self._rec & ~minus_mask) | plus_mask
        self._rec = new_rec
        w = self._w
        rec_value = w[new_rec]
        for mask in range(self._size):
            consistent = (mask & ~minus_mask) | plus_mask
            min_diff = (
                self._delta_masks(mask, consistent)
                + self._delta_masks(consistent, mask)
            )
            diff = w[mask] + self._delta_masks(mask, new_rec) - rec_value
            if diff < min_diff:
                w[mask] += min_diff - diff
        return self.recommend()


# ---------------------------------------------------------------------------
# Exact OPT
# ---------------------------------------------------------------------------

def brute_force_opt(
    statements: Sequence[object],
    candidates: AbstractSet[Index],
    initial_config: AbstractSet[Index],
    cost_fn: CostFunction,
    transitions,
) -> OptimalSchedule:
    """Exact OPT over the unpartitioned space ``2^C``: one part holding
    every candidate, so no stable-partition assumption is made."""
    return OfflineOptimizer(
        [frozenset(candidates)] if candidates else [],
        initial_config,
        cost_fn,
        transitions,
    ).run(statements)
