# reprolint: zone=deterministic
"""The what-if optimizer interface consumed by the tuning algorithms.

Modern optimizers expose hypothetical-configuration costing; the paper's
prototype calls DB2's. :class:`WhatIfOptimizer` provides the same contract
over the analytical :class:`~repro.optimizer.cost_model.CostModel`, plus:

* **Relevance reduction** — only indices on the statement's tables affect
  its plan, so the cache key is the relevant sub-configuration.
* **Used-set extraction** — ``optimize()`` returns the plan cost together
  with the set of indices the plan depends on, which is exactly what the
  Index Benefit Graph of [16] needs.
* **Memoization with call accounting** — ``whatif_calls`` counts every
  costing request; ``optimizations`` counts actual (cache-missing) plan
  optimizations, the expensive quantity the paper reports in §6.2.

Bitset kernel
-------------
Configurations are interned into a shared
:class:`~repro.core.bitset.IndexUniverse` and the memo table keys on
``(statement, relevant-mask)`` ints: relevance reduction is one ``&``
against the statement's table mask and a hit costs one int-dict probe
instead of hashing a frozenset. The frozenset API (``cost``, ``optimize``,
``plan_usage``) is preserved as a thin encode/decode shim at the module
boundary; hot loops use the mask API: ``cost_mask``, the IBG's
``plan_usage_masks`` waves, and :meth:`WhatIfOptimizer.costs_into`, which
is what WFA's work-function update drives.

One memo routine
----------------
Every costing request — a single lookup, an IBG wave, a WFA part vector
on either kernel — goes through one private routine: reduce each mask to
its relevant bits, probe the statement's memo, fetch the plan template on
the batch's first miss, price the miss, install it, and count. Memo
*misses* are priced by a cached per-statement
:class:`~repro.optimizer.template.PlanTemplate` — selectivities, the greedy
join order, and every candidate access path are computed once per statement,
after which any configuration mask is a pure table-local menu argmin plus
precomputed join/sort/maintenance terms, bit-identical to the scalar
:class:`CostModel` path (retained as the equivalence oracle and for
:meth:`WhatIfOptimizer.explain`). The ``optimizations`` counter therefore
counts *template builds*: the number of times genuine plan derivation ran,
which is the machine-independent overhead quantity of §6.2.

Benefit graphs
--------------
:meth:`WhatIfOptimizer.statement_ibg` builds one Index Benefit Graph per
referenced table, fresh on every call: graphs are not cached, and their
waves are answered by the memo above. Because each table's menu entries
and join-step alternatives read only that table's index bits, a table's
graph prices every subset of its candidates exactly as a graph over the
whole statement would.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (
    TYPE_CHECKING, AbstractSet, Dict, FrozenSet, List, Optional, Sequence, Tuple,
)

try:  # Optional: the deduplicating costs_into() branch. Pure-Python callers
    import numpy as _np  # (and the no-numpy CI lane) use the int loop.
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

from .. import obs
from ..core.bitset import IndexUniverse
from ..db.index import Index
from ..db.stats import StatsRepository
from ..query.ast import Statement
from .cost_model import CostModel, CostModelConfig, QueryPlan
from .template import PlanTemplate, build_plan_template

if TYPE_CHECKING:  # the graph module imports this one at module scope
    from ..ibg.graph import IndexBenefitGraph

__all__ = ["WhatIfOptimizer"]

#: Per-statement memo entry: (total cost, used mask, plan-used mask).
_Entry = Tuple[float, int, int]

#: Most-recent statements whose compiled plan template is retained. A
#: template is a few flat tuples per referenced table.
_TEMPLATE_CACHE_LIMIT = 512

#: Most-recent statements whose cost memo is retained. Entries are small,
#: but the bound keeps the optimizer's footprint flat over non-repeating
#: workload streams.
_STMT_CACHE_LIMIT = 1024


class WhatIfOptimizer:
    """Memoizing what-if costing facade over a :class:`CostModel`."""

    def __init__(
        self,
        stats: StatsRepository,
        config: Optional[CostModelConfig] = None,
    ) -> None:
        self._model = CostModel(stats, config)
        self._universe = IndexUniverse()
        # statement -> {relevant mask -> (cost, used mask, plan-used mask)},
        # LRU-bounded like every statement-keyed table here.
        self._cache: "OrderedDict[Statement, Dict[int, _Entry]]" = OrderedDict()
        # statement -> compiled PlanTemplate, LRU-bounded; rebuilt when new
        # candidate indices appear on the statement's tables.
        self._template_cache: "OrderedDict[Statement, PlanTemplate]" = OrderedDict()
        self.whatif_calls = 0
        self.optimizations = 0
        # Observability counters behind cache_stats(): hit/miss/eviction
        # accounting for the statement memo and the plan-template cache.
        self._stmt_hits = 0
        self._stmt_misses = 0
        self._stmt_evictions = 0
        self._template_hits = 0
        self._template_builds = 0
        self._template_evictions = 0
        self._template_mask_costs = 0
        # The counters above stay plain per-instance ints (no lock, no
        # registry call on the costing hot path; benches build several
        # optimizers per process and read them per instance). The default
        # registry samples them at snapshot time through a weak collector,
        # summing across live instances.
        obs.default_registry().register_collector(self._collect_obs)

    def _collect_obs(self):
        """Registry collector: current counter values as metric samples."""
        pairs = (
            ("repro_whatif_calls_total",
             "cost_mask requests (memo hits included).", self.whatif_calls),
            ("repro_whatif_optimizations_total",
             "Genuine plan derivations (template builds).",
             self.optimizations),
            ("repro_whatif_statement_hits_total",
             "Statement-memo hits.", self._stmt_hits),
            ("repro_whatif_statement_misses_total",
             "Statement-memo misses.", self._stmt_misses),
            ("repro_whatif_statement_evictions_total",
             "Statement-memo LRU evictions.", self._stmt_evictions),
            ("repro_whatif_template_hits_total",
             "Plan-template cache hits.", self._template_hits),
            ("repro_whatif_template_builds_total",
             "Plan-template compilations.", self._template_builds),
            ("repro_whatif_template_evictions_total",
             "Plan-template LRU evictions.", self._template_evictions),
            ("repro_whatif_template_mask_costs_total",
             "Memo misses priced by a template menu walk.",
             self._template_mask_costs),
        )
        return [
            {"name": name, "type": "counter", "help": help_text, "value": value}
            for name, help_text, value in pairs
        ]

    @property
    def cost_model(self) -> CostModel:
        return self._model

    @property
    def stats(self) -> StatsRepository:
        return self._model.stats

    @property
    def mask_universe(self) -> IndexUniverse:
        """The shared index-to-bit interning table for mask-level callers."""
        return self._universe

    # -- relevance reduction -------------------------------------------------

    def _statement_tables_mask(self, statement: Statement) -> int:
        return self._universe.tables_mask(statement.tables_referenced())

    def relevant_subset(
        self, statement: Statement, config: AbstractSet[Index]
    ) -> FrozenSet[Index]:
        """Indices of ``config`` that can influence ``statement``'s plan."""
        tables = set(statement.tables_referenced())
        return frozenset(ix for ix in config if ix.table in tables)

    def relevant_mask(self, statement: Statement, config_mask: int) -> int:
        """Mask analogue of :meth:`relevant_subset` (one ``&``)."""
        return config_mask & self._statement_tables_mask(statement)

    # -- plan inspection helpers ----------------------------------------------

    @staticmethod
    def _plan_indices(plan: QueryPlan) -> FrozenSet[Index]:
        """Indices the chosen *plan* depends on (access paths and joins)."""
        used = set()
        for _, path in plan.access_paths:
            used.update(path.indexes)
        for step in plan.join_steps:
            if step.index is not None:
                used.add(step.index)
        return frozenset(used)

    @staticmethod
    def _used_indices(plan: QueryPlan) -> FrozenSet[Index]:
        """Indices the plan's cost actually depends on.

        Access-path and join indices lower the cost; maintenance-paying
        indices raise it. Either way, removing any other index from the
        configuration leaves the cost unchanged — the property the IBG
        traversal relies on.
        """
        used = set(WhatIfOptimizer._plan_indices(plan))
        for item in plan.maintenance:
            used.add(item.index)
        return frozenset(used)

    # -- the memo table -------------------------------------------------------

    def _statement_cache(self, statement: Statement) -> Dict[int, _Entry]:
        cache = self._cache.get(statement)
        if cache is None:
            cache = self._cache[statement] = {}
            while len(self._cache) > _STMT_CACHE_LIMIT:
                self._cache.popitem(last=False)
                self._stmt_evictions += 1
        return cache

    def _statement_template(self, statement: Statement) -> PlanTemplate:
        """The statement's compiled :class:`PlanTemplate` (built on demand).

        A cached template is reused while it covers every candidate index
        registered on the statement's tables; new relevant candidates
        trigger a rebuild (old memo entries stay valid — menus only grow).
        """
        tables_mask = self._statement_tables_mask(statement)
        template = self._template_cache.get(statement)
        if template is not None and not tables_mask & ~template.covered_mask:
            self._template_cache.move_to_end(statement)
            self._template_hits += 1
            return template
        template = build_plan_template(
            self._model, self._universe, statement, tables_mask
        )
        # A build performs the statement's one-off plan derivation work
        # (selectivities, join order, path enumeration): the honest unit
        # of "actual plan optimizations" once batching is on.
        self._template_builds += 1
        self.optimizations += 1
        self._template_cache[statement] = template
        self._template_cache.move_to_end(statement)
        while len(self._template_cache) > _TEMPLATE_CACHE_LIMIT:
            self._template_cache.popitem(last=False)
            self._template_evictions += 1
        return template

    def _memo_entries(
        self, statement: Statement, config_masks: Sequence[int], requests: int
    ) -> List[_Entry]:
        """The memo entries of ``config_masks``: every costing path's one
        routine.

        Each mask is reduced to its relevant bits and probed in the
        statement's memo; a miss is priced by the statement's plan
        template — fetched once, on the batch's first miss — and
        installed. ``requests`` is how many costing requests the batch
        answers (more than ``len(config_masks)`` when the caller
        deduplicated): each counts as a what-if call, and every request
        not priced here counts as a memo hit.
        """
        self.whatif_calls += requests
        tables_mask = self._statement_tables_mask(statement)
        cache = self._statement_cache(statement)
        cache_get = cache.get
        template = None
        misses = 0
        entries: List[_Entry] = []
        append = entries.append
        for mask in config_masks:
            relevant = mask & tables_mask
            entry = cache_get(relevant)
            if entry is None:
                if template is None:
                    template = self._statement_template(statement)
                entry = cache[relevant] = template.entry(relevant)
                misses += 1
            append(entry)
        self._stmt_hits += requests - misses
        self._stmt_misses += misses
        self._template_mask_costs += misses
        return entries

    def _lookup_mask(self, statement: Statement, config_mask: int) -> _Entry:
        return self._memo_entries(statement, (config_mask,), 1)[0]

    # -- the statement's IBGs (configuration-parametric costing) ---------------

    def statement_ibg(
        self,
        statement: Statement,
        candidates: AbstractSet[Index],
        max_nodes: int = 4096,
    ) -> "Dict[str, IndexBenefitGraph]":
        """One Index Benefit Graph per referenced table, as ``{table: graph}``.

        A table gets a graph when some of ``candidates`` lie on it; its
        root is those candidates, and the dict is in sorted table order.
        Every graph is built fresh by :func:`~repro.ibg.graph.build_ibg`;
        the memo answers the nodes an earlier build priced. Raises
        :class:`RuntimeError` when a graph exceeds ``max_nodes``.

        The split is exact: each access-path menu and join step of the
        statement's plan template (INLJ alternatives included) reads only
        its own table's index bits, so a table's graph holds the same
        subset costs and used sets, ``==``, as a graph over the whole
        statement, with far fewer nodes on joins.
        """
        from ..ibg.graph import build_ibg

        universe = self._universe
        relevant = self.relevant_mask(statement, universe.encode(candidates))
        graphs: "Dict[str, IndexBenefitGraph]" = {}
        for table in sorted(statement.tables_referenced()):
            root = relevant & universe.table_mask(table)
            if root:
                graphs[table] = build_ibg(
                    self, statement, universe.decode(root), max_nodes=max_nodes
                )
        return graphs

    # -- mask-level interface (the hot path) ----------------------------------

    def cost_mask(self, statement: Statement, config_mask: int) -> float:
        """``cost(q, X)`` with ``X`` encoded in :attr:`mask_universe`."""
        return self._lookup_mask(statement, config_mask)[0]

    def plan_usage_masks(
        self, statement: Statement, config_masks: Sequence[int]
    ) -> List[Tuple[float, int]]:
        """``(cost, plan-used mask)`` per requested configuration — the
        plan-used mask excludes maintenance-only indices. IBG construction
        prices its graph one BFS wave at a time through this."""
        return [
            (entry[0], entry[2])
            for entry in self._memo_entries(
                statement, config_masks, len(config_masks)
            )
        ]

    def costs_into(self, statement: Statement, config_masks, out) -> None:
        """``cost(q, X)`` for each configuration mask, written into ``out``.

        ``out`` is any float container supporting ``__setitem__`` — the
        WFA part's kernel cost vector (``array('d')`` or a numpy vector),
        or a list. This is how a part fetches all ``2^k`` statement costs
        without building a Python list per statement.

        When ``config_masks`` and ``out`` are both numpy vectors (the
        numpy-kernel hot path), relevance reduction runs vectorized: the
        batch collapses to its *distinct* relevant masks (one ``&`` plus
        one ``unique`` over int64), only those reach the memo, and the
        answers broadcast back with one gather. Cache accounting is the
        same either way: a request answered without pricing work is a hit
        whether it was deduplicated or individually probed.
        """
        requests = len(config_masks)
        if _np is not None and isinstance(config_masks, _np.ndarray):
            tables_mask = self._statement_tables_mask(statement)
            if isinstance(out, _np.ndarray) and tables_mask < (1 << 63):
                relevant = _np.bitwise_and(config_masks, tables_mask)
                uniq, inverse = _np.unique(relevant, return_inverse=True)
                entries = self._memo_entries(statement, uniq.tolist(), requests)
                values = _np.array(
                    [entry[0] for entry in entries], dtype=_np.float64
                )
                _np.take(values, inverse.reshape(-1), out=out)
                return
            # Universe beyond 63 bits: the int64 vector cannot carry the
            # table mask — rewiden to Python ints and take the int loop.
            config_masks = config_masks.tolist()
        for i, entry in enumerate(
            self._memo_entries(statement, config_masks, requests)
        ):
            out[i] = entry[0]

    # -- frozenset interface (module-boundary shim) ----------------------------

    def optimize(
        self, statement: Statement, config: AbstractSet[Index]
    ) -> Tuple[float, FrozenSet[Index]]:
        """``(cost(q, X), used(q, X))`` with caching on the relevant subset."""
        entry = self._lookup_mask(statement, self._universe.encode(config))
        return entry[0], self._universe.decode(entry[1])

    def plan_usage(
        self, statement: Statement, config: AbstractSet[Index]
    ) -> Tuple[float, FrozenSet[Index]]:
        """``(cost, plan-used)`` — used indices excluding maintenance-only
        ones (those affect the cost additively; see ``maintenance_cost``)."""
        entry = self._lookup_mask(statement, self._universe.encode(config))
        return entry[0], self._universe.decode(entry[2])

    def cost(self, statement: Statement, config: AbstractSet[Index]) -> float:
        """``cost(q, X)``: cost of the best plan under configuration ``config``."""
        return self._lookup_mask(statement, self._universe.encode(config))[0]

    def maintenance_cost(self, statement: Statement, index: Index) -> float:
        """Config-independent maintenance charge of ``index`` (0 for reads).

        Not memoized: IBG construction asks once per write statement and
        relevant index, and a charge costs a few float operations.
        """
        return self._model.maintenance_cost(statement, index)

    def explain(self, statement: Statement, config: AbstractSet[Index]) -> QueryPlan:
        """The chosen plan (not cached; used for inspection and examples)."""
        return self._model.explain(
            statement, self.relevant_subset(statement, config)
        )

    def benefit(
        self,
        statement: Statement,
        extra: AbstractSet[Index],
        base: AbstractSet[Index],
    ) -> float:
        """``benefit_q(Y, X) = cost(q, X) − cost(q, Y ∪ X)`` (§2).

        Negative for update statements when ``extra`` incurs maintenance.
        """
        base_mask = self._universe.encode(base)
        extra_mask = self._universe.encode(extra)
        return self.cost_mask(statement, base_mask) - self.cost_mask(
            statement, base_mask | extra_mask
        )

    def cache_stats(self, reset: bool = False) -> Dict[str, float]:
        """Hit/miss/eviction counters for the memo and template caches.

        ``statement_*`` accounts the per-statement cost memo (a hit is a
        costing request answered without pricing work); ``template_*``
        accounts the compiled plan-template cache — the template is
        fetched once per costing batch that misses the memo, so
        ``template_hits`` counts such batches (not misses) answered by a
        cached template, ``template_builds`` counts genuine plan
        derivations, and ``template_mask_costs`` the memo misses priced by
        a template menu walk. Hit rates are derived; they are 0.0 while no
        requests have been observed. Counters are cumulative since
        construction or the last reset; with ``reset=True`` the returned
        values cover the window since the previous reset and the counters
        restart at zero (the caches themselves are untouched), which is
        how the bench harnesses report per-section counts instead of run
        totals.
        """
        stmt_lookups = self._stmt_hits + self._stmt_misses
        template_requests = self._template_hits + self._template_builds
        stats = {
            "statement_hits": self._stmt_hits,
            "statement_misses": self._stmt_misses,
            "statement_evictions": self._stmt_evictions,
            "statement_hit_rate": (
                self._stmt_hits / stmt_lookups if stmt_lookups else 0.0
            ),
            "template_hits": self._template_hits,
            "template_builds": self._template_builds,
            "template_evictions": self._template_evictions,
            "template_hit_rate": (
                self._template_hits / template_requests
                if template_requests else 0.0
            ),
            "template_mask_costs": self._template_mask_costs,
            "whatif_calls": self.whatif_calls,
            "optimizations": self.optimizations,
        }
        if reset:
            self.reset_counters()
        return stats

    def reset_counters(self) -> None:
        self.whatif_calls = 0
        self.optimizations = 0
        self._stmt_hits = 0
        self._stmt_misses = 0
        self._stmt_evictions = 0
        self._template_hits = 0
        self._template_builds = 0
        self._template_evictions = 0
        self._template_mask_costs = 0

    def clear_cache(self) -> None:
        self._cache.clear()
        self._template_cache.clear()
