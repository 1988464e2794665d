# reprolint: zone=deterministic
"""Index Benefit Graph (IBG) construction, after Schnaitter et al. [16].

The IBG for a statement ``q`` and candidate set ``U`` compactly encodes
``cost(q, X)`` for *every* ``X ⊆ U`` while optimizing only a small number of
configurations. Each node is a subset ``Y`` annotated with the cost of the
plan under ``Y`` and ``used(q, Y)`` — the indices the optimal plan depends
on. Node ``Y`` has one child ``Y − {a}`` per used ``a``.

The core property (Lemma 1 of [16], guaranteed by plan monotonicity): if
``a ∈ Y − used(Y)`` then ``cost(Y) = cost(Y − {a})``. Therefore the cost of
an arbitrary ``X`` is found by walking down from the root, repeatedly
removing a used index not in ``X``.

**Bitset encoding.** Subsets are stored as masks over the owning what-if
optimizer's :class:`~repro.core.bitset.IndexUniverse`: nodes are keyed by
int, the root-walk step is two mask operations, and ``cost_mask`` answers a
lookup without constructing a single container — which is what makes the
per-statement benefit/interaction sweeps of WFIT affordable. ``cost_mask``
memoizes its answer per graph: one covering walk and one maintenance sum
per distinct configuration, for as long as the graph lives. The sweeps
read whole pools at once through :meth:`IndexBenefitGraph.subset_costs`,
the cost of every subset of a pool as one list, memoized per pool, and
through :meth:`IndexBenefitGraph.benefit_vector`, one index's benefit in
every context of its pool, memoized per pool and index.

**One graph per table.** WFIT asks for one graph per referenced table
(:meth:`~repro.optimizer.whatif.WhatIfOptimizer.statement_ibg`); this
module's :func:`build_ibg` builds a graph over any candidate set, a whole
statement's included.

**Write statements.** For updates/inserts/deletes, *every* index on the
written table is cost-relevant through maintenance, which would make used
sets — and hence the graph — exponential. But maintenance charges are
additive and configuration-independent, so the graph is built over the
*plan-relevant* used sets only (access paths, joins) with maintenance-free
"core" costs, and ``cost(X)`` adds ``Σ_{a∈X} maintenance(a)`` analytically.
This representation is exact.
"""

from __future__ import annotations

from typing import Any, AbstractSet, Dict, FrozenSet, Iterator, List, Optional, Tuple

from ..core.bitset import IndexUniverse, iter_bits
from ..core.wfa_kernel import default_backend
from ..db.index import Index
from ..query.ast import Statement
from ..optimizer.whatif import WhatIfOptimizer

try:  # The package must import (and pass tier-1) without numpy.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None  # type: ignore[assignment]

__all__ = ["IBGNode", "IndexBenefitGraph", "build_ibg"]

#: Pools of at least this many indices keep their benefit vectors as numpy
#: arrays when the work-function kernel's backend switch selects numpy;
#: smaller pools, and every pool under the pure-Python switch, use lists.
#: Measured on the 2-core dev container: a doi pass over a list beats the
#: three numpy calls up to 6 indices (2^5 contexts) and loses from 7 on.
NUMPY_MIN_POOL = 7


def _maintenance_tables(
    universe: IndexUniverse, maintenance: Dict[Index, float]
) -> Tuple[int, Dict[int, float]]:
    """``(maintenance mask, per-bit charge map)`` — the single definition of
    how maintenance charges project into the mask encoding."""
    mask = universe.project(maintenance)
    by_bit = {
        universe.bit_of(index): charge for index, charge in maintenance.items()
    }
    return mask, by_bit


class IBGNode:
    """One optimized configuration in the IBG.

    ``cost`` is the *core* (maintenance-free) plan cost under ``mask``;
    ``used_mask`` are the plan-relevant indices. Both sets are stored only
    as masks over the graph's :class:`IndexUniverse` — ``subset`` / ``used``
    decode on demand, so graph construction allocates no containers.
    """

    __slots__ = ("mask", "cost", "used_mask", "_universe")

    def __init__(
        self, mask: int, cost: float, used_mask: int, universe: IndexUniverse
    ) -> None:
        self.mask = mask
        self.cost = cost
        self.used_mask = used_mask
        self._universe = universe

    @property
    def subset(self) -> FrozenSet[Index]:
        return self._universe.decode(self.mask)

    @property
    def used(self) -> FrozenSet[Index]:
        return self._universe.decode(self.used_mask)

    def __repr__(self) -> str:
        return (
            f"IBGNode(subset={sorted(ix.name for ix in self.subset)}, "
            f"cost={self.cost!r}, "
            f"used={sorted(ix.name for ix in self.used)})"
        )


class IndexBenefitGraph:
    """The IBG of one statement over a candidate set ``U``.

    Answers ``cost(X)`` and ``used(X)`` for any :class:`IndexUniverse`-
    encoded ``X ⊆ U`` (:meth:`cost_mask`, :meth:`used_mask`) without
    further optimizer calls.
    """

    def __init__(
        self,
        statement: Statement,
        universe: IndexUniverse,
        nodes: Dict[int, IBGNode],
        root_mask: int,
        maintenance: Dict[Index, float],
    ) -> None:
        self.statement = statement
        self._universe = universe
        self._nodes = nodes
        self._root_mask = root_mask
        self.candidates_mask = root_mask
        self.candidates = universe.decode(root_mask)
        self._maintenance = dict(maintenance)
        self._maintenance_mask, self._maintenance_by_bit = _maintenance_tables(
            universe, maintenance
        )
        # cost_mask results (core cost plus maintenance) by config & root.
        self._cost_memo: Dict[int, float] = {}
        # subset_costs results by pool mask; the numpy copies of the
        # vectors of pools at or above NUMPY_MIN_POOL.
        self._subset_costs: Dict[int, List[float]] = {}
        self._cost_arrays: Dict[int, Any] = {}
        # benefit_vector results by (pool mask, index bit).
        self._benefit_vectors: Dict[Tuple[int, int], Any] = {}
        self._all_used_mask: Optional[int] = None
        self._all_used: Optional[FrozenSet[Index]] = None
        self.empty_cost = self.cost_mask(0)

    @property
    def universe(self) -> IndexUniverse:
        """The bit-position table this graph's masks are encoded in."""
        return self._universe

    @property
    def nodes(self) -> Tuple[IBGNode, ...]:
        return tuple(self._nodes.values())

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def maintained_indices(self) -> FrozenSet[Index]:
        """Indices that charge maintenance under this (write) statement."""
        return frozenset(self._maintenance)

    def _find_covering(self, wanted: int) -> IBGNode:
        """Walk from the root to the node whose core cost equals the
        target subset's core cost."""
        nodes = self._nodes
        node = nodes[self._root_mask]
        while True:
            extra = node.used_mask & ~wanted
            if not extra:
                return node
            # Remove any used index not in the target subset; the lowest
            # set bit keeps traversals deterministic and reproducible.
            drop = extra & -extra
            child = nodes.get(node.mask & ~drop)
            if child is None:
                raise KeyError(
                    f"IBG is missing child {self._universe.decode(node.mask & ~drop)}"
                    f" — was it built with a node cap?"
                )
            node = child

    def _maintenance_sum(self, mask: int) -> float:
        total = 0.0
        charges = self._maintenance_by_bit
        for bit in iter_bits(mask):
            total += charges[bit]
        return total

    # -- mask-level lookups (the hot path) ------------------------------------

    def cost_mask(self, config_mask: int) -> float:
        """``cost(q, X)`` for an encoded ``X ⊆ U``, answered from the graph
        (memoized per graph)."""
        wanted = config_mask & self._root_mask
        total = self._cost_memo.get(wanted)
        if total is None:
            total = self._find_covering(wanted).cost
            charged = wanted & self._maintenance_mask
            if charged:
                total += self._maintenance_sum(charged)
            self._cost_memo[wanted] = total
        return total

    def subset_costs(self, pool: int) -> List[float]:
        """``cost_mask`` of every subset of ``pool``, by local mask.

        Local bit ``k`` stands for the ``k``-th lowest set bit of ``pool``,
        so the list has ``2^|pool|`` entries. Memoized per pool: the
        benefit and interaction sweeps of one table share one vector.
        """
        costs = self._subset_costs.get(pool)
        if costs is None:
            masks = [0]
            for bit in iter_bits(pool):
                masks += [mask | bit for mask in masks]
            cost = self.cost_mask
            costs = self._subset_costs[pool] = [cost(mask) for mask in masks]
        return costs

    def benefit_vector(self, pool: int, bit: int) -> Any:
        """``C[k] − C[k | a]`` for every local mask ``k`` of ``pool`` without
        ``a``, the member of ``pool`` at ``bit``, in ascending ``k``: ``a``'s
        benefit in every context the pool offers, where ``C`` is
        :meth:`subset_costs`. Position ``j`` of the vector is the ``j``-th
        local mask of ``pool`` without ``a``.

        A list, or for a pool of at least :data:`NUMPY_MIN_POOL` indices
        under the numpy backend a float64 array, with the same
        subtractions either way. Memoized per ``(pool, bit)``: β of ``a``
        and doi of ``a`` with every partner read one vector.
        """
        key = (pool, bit)
        vector = self._benefit_vectors.get(key)
        if vector is None:
            costs = self.subset_costs(pool)
            local = 1 << (pool & (bit - 1)).bit_count()
            if pool.bit_count() >= NUMPY_MIN_POOL and default_backend() == "numpy":
                array = self._cost_arrays.get(pool)
                if array is None:
                    array = self._cost_arrays[pool] = _np.array(costs)
                halves = array.reshape(-1, 2, local)
                vector = (halves[:, 0] - halves[:, 1]).ravel()
            else:
                vector = [
                    costs[k] - costs[k | local]
                    for k in range(len(costs)) if not k & local
                ]
            self._benefit_vectors[key] = vector
        return vector

    def used_mask(self, config_mask: int) -> int:
        """``used(q, X)`` as a mask: the cost-relevant indices under ``X``."""
        wanted = config_mask & self._root_mask
        node = self._find_covering(wanted)
        return (node.used_mask & wanted) | (wanted & self._maintenance_mask)

    def all_used_mask(self) -> int:
        """Mask union of cost-relevant indices over all configurations."""
        if self._all_used_mask is None:
            out = self._maintenance_mask
            for node in self._nodes.values():
                out |= node.used_mask
            self._all_used_mask = out
        return self._all_used_mask

    def all_used_indices(self) -> FrozenSet[Index]:
        """Union of cost-relevant indices over all configurations.

        Any candidate outside this set never appears in a plan and pays no
        maintenance under *any* configuration, so it cannot change any cost
        or any benefit: analyses may soundly restrict themselves to this set.
        """
        if self._all_used is None:
            self._all_used = self._universe.decode(self.all_used_mask())
        return self._all_used

    def __iter__(self) -> Iterator[IBGNode]:
        return iter(self._nodes.values())


def build_ibg(
    optimizer: WhatIfOptimizer,
    statement: Statement,
    candidates: AbstractSet[Index],
    max_nodes: int = 4096,
) -> IndexBenefitGraph:
    """Construct the IBG of ``statement`` over ``candidates``.

    Only indices relevant to the statement (on its referenced tables) are
    kept in the root; the rest can never appear in a plan. ``max_nodes``
    bounds pathological blow-up; the bound is generous because each node
    expands only into ``|plan-used|`` children and plan-used sets are small.
    """
    universe = optimizer.mask_universe
    root_mask = optimizer.relevant_mask(statement, universe.encode(candidates))
    maintenance: Dict[Index, float] = {}
    if statement.is_update:
        for bit in iter_bits(root_mask):
            index = universe.index_at(bit)
            charge = optimizer.maintenance_cost(statement, index)
            if charge > 0.0:
                maintenance[index] = charge
    maintenance_mask, charge_by_bit = _maintenance_tables(universe, maintenance)

    # Wave-at-a-time construction: each BFS frontier is priced through the
    # optimizer's batched template interface in one call, so the graph pays
    # one plan derivation per *statement*, not one per node.
    nodes: Dict[int, IBGNode] = {}
    frontier: List[int] = [root_mask]
    while frontier:
        wave = [mask for mask in dict.fromkeys(frontier) if mask not in nodes]
        if not wave:
            break
        priced = optimizer.plan_usage_masks(statement, wave)
        frontier = []
        for subset_mask, (cost, plan_used_mask) in zip(wave, priced):
            if len(nodes) >= max_nodes:
                raise RuntimeError(
                    f"IBG exceeded {max_nodes} nodes for statement {statement!r}"
                )
            plan_used_mask &= subset_mask
            # Store the maintenance-free core cost so lookups stay exact for
            # arbitrary subsets (maintenance is re-added per lookup).
            core = cost
            charged = subset_mask & maintenance_mask
            if charged:
                core -= sum(charge_by_bit[bit] for bit in iter_bits(charged))
            nodes[subset_mask] = IBGNode(
                subset_mask, core, plan_used_mask, universe
            )
            remaining = plan_used_mask
            while remaining:
                bit = remaining & -remaining
                remaining ^= bit
                child = subset_mask & ~bit
                if child not in nodes:
                    frontier.append(child)
    return IndexBenefitGraph(statement, universe, nodes, root_mask, maintenance)
