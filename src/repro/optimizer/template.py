# reprolint: zone=deterministic
"""Per-statement plan templates: the what-if optimizer's plan search.

Selectivities, the greedy join order and the per-table access-path menu do
not depend on the hypothetical configuration — by the paper's own design
(§2, §5) the join order is fixed by cardinalities, selectivities by the
predicates, and the candidate access paths by the statement's sargable
columns. Only the *argmin over the menu* changes with the configuration.

A :class:`PlanTemplate` performs that statement-local work once and compiles
it into flat per-table *menus*:

* every candidate access path of every referenced table, priced and sorted
  by the deterministic ``AccessPath.selection_key``, each tagged with the
  mask of index bits it requires;
* the (configuration-independent) join skeleton — greedy join order, hash
  build/probe and output CPU constants per step, and the per-index
  nested-loop-join alternatives when INLJ is enabled;
* additive maintenance charges per candidate index for write statements,
  plus the constant heap-write term;
* the ORDER-BY sort term (constant for joins; per-path sort-avoidance flag
  for single-table queries).

:meth:`PlanTemplate.entry` then prices *any* configuration mask with one
first-available scan per table menu plus a handful of float additions, with
used/plan-used masks included, and no plan objects, frozensets, or path
re-enumeration. :meth:`PlanTemplate.explain` makes the same choices and
renders them as a :class:`~repro.optimizer.cost_model.QueryPlan`. The costs
are those of a scalar search that enumerates every path per configuration,
to the last bit: ``tests/reference.py`` keeps that search as the oracle and
``tests/optimizer/test_template_property.py`` compares with ``==``.

Menu-entry availability is a single mask test (``entry.mask & ~config ==
0``), so pricing the ``2^k`` configurations a WFA part requests costs
``O(2^k · tables · menu)`` int operations — this is what removes the
optimizer bottleneck from small-part (high-part-count) deployments.
"""

from __future__ import annotations

import math
from typing import AbstractSet, List, Optional, Sequence, Tuple

from ..core.bitset import IndexUniverse
from ..db.index import Index
from ..query.ast import (
    DeleteStatement,
    InsertStatement,
    SelectQuery,
    Statement,
    UpdateStatement,
)
from .access import AccessPath
from .cost_model import CostModel, JoinStep, MaintenanceItem, QueryPlan
from .selectivity import join_selectivity, selectivity_by_column

__all__ = ["PlanTemplate", "build_plan_template"]

#: A priced access-path alternative: (required index bits, path cost,
#: delivers-the-ORDER-BY flag). Menus are sorted by
#: ``AccessPath.selection_key``, so the first available entry is the
#: cheapest path the configuration provides, ties broken deterministically.
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
    on the statement's tables and the owner must rebuild. ``tables`` names
    each slot's table, in join order, and ``step_rows`` holds each join
    step's output-row estimate; only :meth:`explain` reads them.
    """

    __slots__ = (
        "kind",
        "covered_mask",
        "_slots",
        "_sort_const",
        "_sort_default",
        "_write_cost",
        "_maintenance",
        "_tables",
        "_step_rows",
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
        tables: Sequence[str],
        step_rows: Sequence[float] = (),
    ) -> None:
        self.kind = kind
        self.covered_mask = covered_mask
        self._slots = tuple(slots)
        self._sort_const = sort_const
        self._sort_default = sort_default
        self._write_cost = write_cost
        self._maintenance = tuple(maintenance)
        self._tables = tuple(tables)
        self._step_rows = tuple(step_rows)

    def entry(self, config_mask: int) -> Tuple[float, int, int]:
        """``(cost, used mask, plan-used mask)`` under ``config_mask``.

        ``config_mask`` must be relevance-reduced and within
        :attr:`covered_mask`; the result triple is bit-identical to the
        scalar reference search's plan cost and used sets for the same
        mask.
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

    def explain(
        self,
        model: CostModel,
        universe: IndexUniverse,
        statement: Statement,
        config_mask: int,
    ) -> QueryPlan:
        """The plan :meth:`entry` prices under ``config_mask``.

        Makes :meth:`entry`'s choices — each table's first available menu
        entry, each join step's cheaper of hash and index-nested-loop —
        and renders them with the template's sort, heap-write and
        maintenance terms. ``QueryPlan.total_cost`` adds the terms in
        :meth:`entry`'s order, so it equals ``entry(config_mask)[0]``.
        Menus hold no :class:`~repro.optimizer.access.AccessPath`, so the
        chosen tables' paths are enumerated again, in menu order, over the
        candidates the template covers. ``model`` and ``universe`` are the
        ones the template was built with.
        """
        candidates = universe.decode(self.covered_mask)

        def access(number: int) -> Tuple[Tuple[str, AccessPath], float, bool]:
            """Slot ``number``'s ``(table, path)``, path cost and sort flag."""
            for position, (e_mask, cost, sort_ok) in enumerate(
                self._slots[number][0]
            ):
                if not e_mask & ~config_mask:
                    break
            table = self._tables[number]
            path = _table_paths(model, statement, table, candidates)[position]
            return (table, path), cost, sort_ok

        if self.kind != "select":
            return QueryPlan(
                statement,
                (access(0)[0],) if self._slots else (),
                write_cost=self._write_cost,
                maintenance=tuple(
                    MaintenanceItem(universe.index_at(bit), charge)
                    for bit, charge in self._maintenance if bit & config_mask
                ),
            )
        first, _, sort_ok = access(0)
        if len(self._slots) == 1:
            return QueryPlan(
                statement, (first,),
                sort_cost=0.0 if sort_ok else self._sort_default,
            )
        paths = [first]
        steps: List[JoinStep] = []
        for number in range(1, len(self._slots)):
            _, c1, c2, inlj = self._slots[number]
            inner, cost, _ = access(number)
            rows = self._step_rows[number - 1]
            hash_cost = (cost + c1) + c2
            best = hash_cost
            best_ix = 0
            for inlj_cost, ix_bit in inlj:
                if ix_bit & config_mask and inlj_cost < best:
                    best = inlj_cost
                    best_ix = ix_bit
            if best_ix:
                steps.append(JoinStep(
                    inner[0], "index-nested-loop", best, rows,
                    universe.index_at(best_ix),
                ))
            else:
                paths.append(inner)
                steps.append(JoinStep(inner[0], "hash", hash_cost - cost, rows))
        return QueryPlan(
            statement, tuple(paths), tuple(steps), sort_cost=self._sort_const
        )


def _table_paths(
    model: CostModel,
    statement: Statement,
    table: str,
    candidates: AbstractSet[Index],
) -> List[AccessPath]:
    """Every access path of ``table`` over ``candidates``, in menu order.

    Write statements must fetch the heap rows they modify, so they get no
    index-only paths.
    """
    paths = model.access_model.enumerate_paths(
        table,
        selectivity_by_column(model.stats, statement.predicates_on(table)),
        statement.columns_needed(table),
        candidates,
        allow_index_only=isinstance(statement, SelectQuery),
    )
    paths.sort(key=lambda p: p.selection_key)
    return paths


def _menu(
    universe: IndexUniverse,
    paths: Sequence[AccessPath],
    wanted_order: Tuple[str, ...],
) -> List[_MenuEntry]:
    """The priced menu of one table's paths (from :func:`_table_paths`)."""
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
        order = wanted_order if query.order_by is not None and (
            query.order_by.table == table and len(query.tables) == 1
        ) else ()
        paths = _table_paths(model, query, table, candidates)
        menus[table] = _menu(universe, paths, order)
        # Every path of a table produces the same qualifying-row estimate.
        out_rows[table] = paths[0].output_rows

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
            write_cost=0.0, maintenance=(), tables=(table,),
        )

    # Greedy left-deep join skeleton: the join order depends only on
    # cardinalities, never on the configuration, which keeps the
    # contributions of different tables additive under hash joins.
    remaining = set(query.tables)
    first = min(remaining, key=lambda t: (out_rows[t], t))
    remaining.remove(first)
    joined = {first}
    current_rows = out_rows[first]
    slots: List[_Slot] = [(menus[first], None, 0.0, ())]
    tables = [first]
    join_rows: List[float] = []
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
        tables.append(table)
        join_rows.append(step_rows)
        current_rows = step_rows

    sort_const = 0.0
    if query.order_by is not None:
        rows = max(current_rows, 1.0)
        sort_const = rows * math.log2(rows + 2.0) * config.sort_cpu_per_row
    return PlanTemplate(
        "select", covered_mask, slots=slots,
        sort_const=sort_const, sort_default=0.0,
        write_cost=0.0, maintenance=(), tables=tables, step_rows=join_rows,
    )


def _write_template(
    model: CostModel,
    universe: IndexUniverse,
    statement: Statement,
    covered_mask: int,
) -> PlanTemplate:
    config = model.config
    candidates = universe.decode(covered_mask)
    table = statement.table
    on_table = sorted(ix for ix in candidates if ix.table == table)
    access = model.access_model

    if isinstance(statement, InsertStatement):
        affected = float(statement.row_count)
        slots: Tuple[_Slot, ...] = ()
        tables: Tuple[str, ...] = ()
        kind = "insert"
    else:
        paths = _table_paths(model, statement, table, candidates)
        affected = paths[0].output_rows
        slots = ((_menu(universe, paths, ()), None, 0.0, ()),)
        tables = (table,)
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
        maintenance=maintenance, tables=tables,
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
