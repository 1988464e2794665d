# reprolint: zone=deterministic
"""Per-statement plan templates: batched what-if costing (ISSUE 4).

The scalar :class:`~repro.optimizer.cost_model.CostModel` re-derives
selectivities, the greedy join order, and the per-table access-path menu on
*every* plan optimization, even though — by the paper's own design (§2, §5)
— none of those depend on the hypothetical configuration: the join order is
fixed by cardinalities, selectivities by the predicates, and the candidate
access paths by the statement's sargable columns. Only the *argmin over the
menu* changes with the configuration.

A :class:`PlanTemplate` performs that statement-local work once and compiles
it into flat per-table *menus*:

* every candidate access path of every referenced table, priced and sorted
  by the scalar path's deterministic ``selection_key``, each tagged with the
  mask of index bits it requires;
* the (configuration-independent) join skeleton — greedy join order, hash
  build/probe and output CPU constants per step, and the per-index
  nested-loop-join alternatives when INLJ is enabled;
* additive maintenance charges per candidate index for write statements,
  plus the constant heap-write term;
* the ORDER-BY sort term (constant for joins; per-path sort-avoidance flag
  for single-table queries).

:meth:`PlanTemplate.entry` then prices *any* configuration mask with one
first-available scan per table menu plus a handful of float additions that
replay the scalar plan's summation order **exactly** — the same costs to the
last bit (``tests/optimizer/test_template_property.py`` is the oracle), with
used/plan-used masks included, and no plan objects, frozensets, or path
re-enumeration. The scalar ``CostModel.explain``/``statement_cost`` path is
retained untouched as the equivalence oracle and for plan inspection.

Menu-entry availability is a single mask test (``entry.mask & ~config ==
0``), so pricing the ``2^k`` configurations a WFA part requests costs
``O(2^k · tables · menu)`` int operations — this is what removes the
optimizer bottleneck from small-part (high-part-count) deployments.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from ..core.bitset import IndexUniverse
from ..query.ast import (
    DeleteStatement,
    InsertStatement,
    SelectQuery,
    Statement,
    UpdateStatement,
)
from .cost_model import CostModel
from .selectivity import join_selectivity, selectivity_by_column

__all__ = ["PlanTemplate", "build_plan_template"]

#: A priced access-path alternative: (required index bits, path cost,
#: delivers-the-ORDER-BY flag). Menus are sorted by the scalar path's
#: ``AccessPath.selection_key``, so "first available entry" is exactly
#: ``AccessCostModel.best_path`` restricted to the configuration.
_MenuEntry = Tuple[int, float, bool]

#: One table of the join pipeline: (menu, c1, c2, inlj). ``c1 is None``
#: marks the leading (build-side) table; for join tables ``c1``/``c2`` are
#: the hash build+probe and output CPU constants of the step and ``inlj``
#: holds ``(cost, index bit)`` nested-loop alternatives in sorted index
#: order (empty unless INLJ is enabled and an equi-join connects the step).
_Slot = Tuple[Sequence[_MenuEntry], Optional[float], float, Sequence[Tuple[float, int]]]


class PlanTemplate:
    """Configuration-parametric costing for one statement.

    Instances are built by :func:`build_plan_template` and cached per
    statement by :class:`~repro.optimizer.whatif.WhatIfOptimizer`;
    ``covered_mask`` records the candidate bits the menus were enumerated
    over — a request mentioning bits outside it means new indices appeared
    on the statement's tables and the owner must rebuild.
    """

    __slots__ = (
        "kind",
        "covered_mask",
        "_slots",
        "_sort_const",
        "_sort_default",
        "_write_cost",
        "_maintenance",
    )

    def __init__(
        self,
        kind: str,
        covered_mask: int,
        slots: Sequence[_Slot],
        sort_const: float,
        sort_default: float,
        write_cost: float,
        maintenance: Sequence[Tuple[int, float]],
    ) -> None:
        self.kind = kind
        self.covered_mask = covered_mask
        self._slots = tuple(slots)
        self._sort_const = sort_const
        self._sort_default = sort_default
        self._write_cost = write_cost
        self._maintenance = tuple(maintenance)

    def entry(self, config_mask: int) -> Tuple[float, int, int]:
        """``(cost, used mask, plan-used mask)`` under ``config_mask``.

        ``config_mask`` must be relevance-reduced and within
        :attr:`covered_mask`; the result triple is bit-identical to what the
        scalar optimize-and-extract path produces for the same mask.
        """
        kind = self.kind
        if kind == "select":
            slots = self._slots
            if len(slots) == 1:
                menu = slots[0][0]
                for e_mask, cost, sort_ok in menu:
                    if not e_mask & ~config_mask:
                        break
                total = cost + (0.0 if sort_ok else self._sort_default)
                return total, e_mask, e_mask
            acc = 0
            steps = 0
            used = 0
            for menu, c1, c2, inlj in slots:
                for e_mask, cost, _ in menu:
                    if not e_mask & ~config_mask:
                        break
                if c1 is None:  # leading table: access cost only, no step
                    acc += cost
                    used |= e_mask
                    continue
                hash_cost = (cost + c1) + c2
                best = hash_cost
                best_ix = 0
                for inlj_cost, ix_bit in inlj:
                    if ix_bit & config_mask and inlj_cost < best:
                        best = inlj_cost
                        best_ix = ix_bit
                if best_ix:
                    steps += best
                    used |= best_ix
                else:
                    acc += cost
                    steps += hash_cost - cost
                    used |= e_mask
            total = (acc + steps) + self._sort_const
            return total, used, used
        # Write statements: menu argmin + constant heap write + additive
        # per-index maintenance (the IBG's exact-decomposition property).
        msum = 0
        maint_used = 0
        for ix_bit, charge in self._maintenance:
            if ix_bit & config_mask:
                msum += charge
                maint_used |= ix_bit
        if kind == "insert":
            return self._write_cost + msum, maint_used, 0
        menu = self._slots[0][0]
        for e_mask, cost, _ in menu:
            if not e_mask & ~config_mask:
                break
        total = (cost + self._write_cost) + msum
        return total, e_mask | maint_used, e_mask


def _menu(
    model: CostModel,
    universe: IndexUniverse,
    table: str,
    col_sel,
    needed_columns,
    candidates,
    wanted_order: Tuple[str, ...],
    allow_index_only: bool = True,
) -> List[_MenuEntry]:
    """The priced, deterministically sorted access-path menu of one table."""
    paths = model.access_model.enumerate_paths(
        table, col_sel, needed_columns, candidates, allow_index_only
    )
    paths.sort(key=lambda p: p.selection_key)
    entries: List[_MenuEntry] = []
    for path in paths:
        mask = 0
        for index in path.indexes:
            mask |= universe.bit_of(index)
        sort_ok = (
            bool(wanted_order)
            and path.sorted_columns[: len(wanted_order)] == wanted_order
        )
        entries.append((mask, path.cost, sort_ok))
    return entries


def _select_template(
    model: CostModel,
    universe: IndexUniverse,
    query: SelectQuery,
    covered_mask: int,
) -> PlanTemplate:
    stats = model.stats
    config = model.config
    candidates = universe.decode(covered_mask)
    wanted_order: Tuple[str, ...] = ()
    if query.order_by is not None:
        wanted_order = tuple(c.column for c in query.order_by.columns)

    menus = {}
    out_rows = {}
    for table in query.tables:
        sels = selectivity_by_column(stats, query.predicates_on(table))
        order = wanted_order if query.order_by is not None and (
            query.order_by.table == table and len(query.tables) == 1
        ) else ()
        menus[table] = _menu(
            model, universe, table, sels, query.columns_needed(table),
            candidates, order,
        )
        # Every path of a table produces the same qualifying-row estimate;
        # the table scan (always first in enumeration) supplies it.
        residual = 1.0
        for sel, _ in sels.values():
            residual *= sel
        out_rows[table] = stats.table_stats(table).row_count * residual

    if len(query.tables) == 1:
        table = query.tables[0]
        sort_default = 0.0
        if query.order_by is not None:
            rows = max(out_rows[table], 1.0)
            sort_default = (
                rows * math.log2(rows + 2.0) * config.sort_cpu_per_row
            )
        return PlanTemplate(
            "select", covered_mask,
            slots=((menus[table], None, 0.0, ()),),
            sort_const=0.0, sort_default=sort_default,
            write_cost=0.0, maintenance=(),
        )

    # Greedy left-deep join skeleton — the same walk as
    # ``CostModel._order_joins`` with the (configuration-independent)
    # cardinalities substituted for concrete access paths.
    remaining = set(query.tables)
    first = min(remaining, key=lambda t: (out_rows[t], t))
    remaining.remove(first)
    joined = {first}
    current_rows = out_rows[first]
    slots: List[_Slot] = [(menus[first], None, 0.0, ())]
    sorted_candidates = sorted(ix for ix in candidates)
    while remaining:
        best = None
        for table in sorted(remaining):
            join_pred = model.connecting_join(query, joined, table)
            if join_pred is None:
                out = current_rows * out_rows[table]
            else:
                inner_col = join_pred.column_on(table)
                outer_col = (
                    join_pred.left
                    if join_pred.right.table == table
                    else join_pred.right
                )
                sel = join_selectivity(
                    stats,
                    outer_col.table, outer_col.column,
                    table, inner_col.column,
                )
                out = current_rows * out_rows[table] * sel
            key = (out, table)
            if best is None or key < (best[0], best[1]):
                best = (out, table, join_pred)
        if best is None:
            raise RuntimeError("join enumeration found no next table")
        step_rows, table, join_pred = best
        remaining.remove(table)
        joined.add(table)
        c1 = (current_rows + out_rows[table]) * config.hash_cpu_per_row
        c2 = step_rows * config.output_cpu_per_row
        inlj: List[Tuple[float, int]] = []
        if config.enable_inlj and join_pred is not None:
            join_col = join_pred.column_on(table).column
            for index in sorted_candidates:
                if index.table != table or index.leading_column != join_col:
                    continue
                lookup = current_rows * (
                    model.sizer.height(index) + config.inlj_lookup_cost
                )
                inlj.append((lookup + c2, universe.bit_of(index)))
        slots.append((menus[table], c1, c2, tuple(inlj)))
        current_rows = step_rows

    sort_const = 0.0
    if query.order_by is not None:
        rows = max(current_rows, 1.0)
        sort_const = rows * math.log2(rows + 2.0) * config.sort_cpu_per_row
    return PlanTemplate(
        "select", covered_mask, slots=slots,
        sort_const=sort_const, sort_default=0.0,
        write_cost=0.0, maintenance=(),
    )


def _write_template(
    model: CostModel,
    universe: IndexUniverse,
    statement: Statement,
    covered_mask: int,
) -> PlanTemplate:
    stats = model.stats
    config = model.config
    candidates = universe.decode(covered_mask)
    table = statement.table
    on_table = sorted(ix for ix in candidates if ix.table == table)
    access = model.access_model

    if isinstance(statement, InsertStatement):
        affected = float(statement.row_count)
        slots: Tuple[_Slot, ...] = ()
        kind = "insert"
    else:
        sels = selectivity_by_column(stats, statement.predicates)
        menu = _menu(
            model, universe, table, sels, statement.columns_needed(table),
            candidates, (), allow_index_only=False,
        )
        residual = 1.0
        for sel, _ in sels.values():
            residual *= sel
        affected = stats.table_stats(table).row_count * residual
        slots = ((menu, None, 0.0, ()),)
        kind = "delete" if isinstance(statement, DeleteStatement) else "update"

    set_columns = (
        set(statement.set_columns)
        if isinstance(statement, UpdateStatement) else None
    )
    maintenance: List[Tuple[int, float]] = []
    for index in on_table:
        key_change = (
            True if set_columns is None
            else bool(set_columns.intersection(index.columns))
        )
        charge = access.index_maintenance_cost(index, affected, key_change)
        if charge > 0:
            maintenance.append((universe.bit_of(index), charge))
    return PlanTemplate(
        kind, covered_mask, slots=slots,
        sort_const=0.0, sort_default=0.0,
        write_cost=affected * config.access.write_per_row,
        maintenance=maintenance,
    )


def build_plan_template(
    model: CostModel,
    universe: IndexUniverse,
    statement: Statement,
    covered_mask: int,
) -> PlanTemplate:
    """Compile ``statement`` into a :class:`PlanTemplate` over the candidate
    bits of ``covered_mask`` (all registered indices on its tables).

    Every statement type has a template; anything else raises
    ``TypeError``.
    """
    if isinstance(statement, SelectQuery):
        return _select_template(model, universe, statement, covered_mask)
    if isinstance(statement, (UpdateStatement, DeleteStatement, InsertStatement)):
        return _write_template(model, universe, statement, covered_mask)
    raise TypeError(f"not a statement: {statement!r}")
