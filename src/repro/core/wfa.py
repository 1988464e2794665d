# reprolint: zone=deterministic
"""The Work Function Algorithm for index tuning (§4.1, Figure 3).

One :class:`WFA` instance tracks a small set of candidate indices (one part
of the stable partition) and maintains the work function value ``w[S]`` for
every configuration ``S`` of that part:

    w_n(S) = min_X { w_{n-1}(X) + cost(q_n, X) + δ(X, S) }

Configurations are bitmasks over the part's (deterministically sorted)
indices. The recurrence is evaluated in ``O(2^k · k)`` per statement by
per-dimension relaxation, exploiting that δ decomposes into independent
per-index create/drop costs. Transition costs come from a precomputed
:class:`~repro.core.bitset.MaskDeltaTable` (two array reads per δ), and
when the cost provider speaks masks (the
:class:`~repro.optimizer.whatif.WhatIfOptimizer` contract) statement costs
are fetched through the bitset kernel without constructing a single
frozenset; a pure-``frozenset`` twin is retained in
:mod:`repro.core.wfa_reference` as the equivalence oracle.

The numerical state itself — the ``w`` vector, the per-statement cost
vector, and the relaxation/scan/feedback loops over them — lives in an
array-backed work-function kernel (:mod:`repro.core.wfa_kernel`):
vectorized numpy when available, an ``array``-module pure-Python twin
otherwise, both bit-identical to the original scalar loops. This class
keeps the index↔mask mapping, the cost-provider plumbing, and the
checkpoint hooks.

The recommendation rule follows Figure 3: the next recommendation minimizes
``score(S) = w[S] + δ(S, currRec)`` subject to the ``S ∈ p[S]`` condition
(equivalently ``w_n(S) = w_{n-1}(S) + cost(q_n, S)``), with the
lexicographic tie-break of Appendix B. Note the δ arguments are *reversed*
relative to the symmetric original of Borodin & El-Yaniv — the form required
by the paper's competitive proof for asymmetric δ (footnote 4).

Feedback handling (Figure 4) lives here too so that both WFA⁺ and WFIT can
delegate to their parts.
"""

from __future__ import annotations

import time
from typing import AbstractSet, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from .. import obs
from ..db.index import Index
from .bitset import MaskDeltaTable, delta_cost
from .wfa_kernel import make_kernel

__all__ = ["WFA", "CostFunction", "TransitionCosts"]

# Backend- and size-tagged kernel telemetry: one duration histogram per
# (backend, tracked-state count) series, cached per instance so the hot
# path pays one attribute load and one observe. The joint labels feed the
# ROADMAP's crossover re-tuning item directly — each series' `count` is
# the relax count at that batch shape, its distribution the wall time, so
# the numpy/python crossover is readable straight off a snapshot.

# cost(q, X) -> float where X is a set of indices.
CostFunction = Callable[[object, FrozenSet[Index]], float]


class TransitionCosts:
    """Protocol-ish base for δ providers: per-index create/drop costs.

    Any object with ``create_cost(index)`` and ``drop_cost(index)`` works
    (e.g. :class:`repro.db.StatsTransitionCosts`); this class also offers a
    simple dict-backed implementation for tests and synthetic instances.
    """

    def __init__(
        self,
        create: Optional[Dict[Index, float]] = None,
        drop: Optional[Dict[Index, float]] = None,
        default_create: float = 1.0,
        default_drop: float = 0.0,
    ) -> None:
        self._create = dict(create or {})
        self._drop = dict(drop or {})
        self._default_create = default_create
        self._default_drop = default_drop

    def create_cost(self, index: Index) -> float:
        return self._create.get(index, self._default_create)

    def drop_cost(self, index: Index) -> float:
        return self._drop.get(index, self._default_drop)

    def delta(self, old: AbstractSet[Index], new: AbstractSet[Index]) -> float:
        return delta_cost(self, old, new)


class WFA:
    """Work Function Algorithm over one part of the candidate set."""

    def __init__(
        self,
        indices: Sequence[Index],
        initial_config: AbstractSet[Index],
        cost_fn: CostFunction,
        transitions,
        work_values: Optional[Sequence[float]] = None,
        recommendation: Optional[AbstractSet[Index]] = None,
    ) -> None:
        """Create an instance tracking ``indices``.

        Parameters
        ----------
        indices:
            The part's candidate indices (order is normalized internally).
        initial_config:
            ``S0 ∩ Ck`` — which of the part's indices start materialized.
        cost_fn:
            The what-if interface ``cost(q, X)``.
        transitions:
            δ provider with ``create_cost`` / ``drop_cost``.
        work_values / recommendation:
            Optional warm-start state (used by WFIT's ``repartition``); when
            given, they replace the default ``w0(S) = δ(S0, S)``.
            ``work_values`` is ``w`` by local mask, the layout of
            ``export_state()["w"]``: one value for *every* configuration of
            the part. A vector of any other length raises
            :class:`ValueError` (a defaulted ``w[S] = 0`` would declare S
            reachable for free and corrupt every recommendation after a
            repartition).
        """
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
        # Bitset kernel state: precomputed δ prefix sums (shared with the
        # work-function kernel as contiguous arrays) and (when the cost
        # provider speaks masks) each local mask re-encoded in the
        # provider's global IndexUniverse. The per-mask subset table is
        # only materialized when the slow path first needs it — there every
        # statement decodes all 2^k configurations anyway.
        self._delta_table = MaskDeltaTable(self._create, self._drop)
        self._kernel = make_kernel(self._delta_table)
        self._mask_provider = self._detect_mask_provider(cost_fn)
        self._subsets: Optional[List[FrozenSet[Index]]] = None
        if self._mask_provider is not None:
            universe = self._mask_provider.mask_universe
            bit_masks = [1 << universe.ensure(ix) for ix in self._indices]
            global_masks = [0] * self._size
            for mask in range(1, self._size):
                low = mask & -mask
                global_masks[mask] = (
                    global_masks[mask ^ low] | bit_masks[low.bit_length() - 1]
                )
            # The kernel-preferred container (an int64 vector for numpy
            # when the universe fits a machine word) — computed once: bit
            # positions never move for the life of the universe.
            self._global_masks = self._kernel.mask_array(global_masks)
        else:
            self._global_masks = None

        initial_mask = self._mask_of(initial_config)
        if work_values is not None:
            self._kernel.load_w(self._checked_w(work_values))
        else:
            self._kernel.reset_from_delta(initial_mask)
        if recommendation is not None:
            self._rec = self._mask_of(recommendation)
        else:
            self._rec = initial_mask
        self._statements_analyzed = 0
        # Lazily-bound relax-duration histogram (obs layer); None until the
        # first instrumented relax so disabled runs never touch the registry.
        self._relax_hist = None

    # -- mask helpers --------------------------------------------------------

    @staticmethod
    def _detect_mask_provider(cost_fn):
        """The optimizer behind ``cost_fn`` when it speaks masks, else None.

        Duck-typed: an owner exposing ``costs_into`` and ``mask_universe``
        — the :class:`~repro.optimizer.whatif.WhatIfOptimizer` contract —
        lets the work-function update skip frozenset construction
        entirely. The fast path engages only when ``cost_fn`` *is* the
        published ``cost`` entry point of the class that defines
        ``costs_into``: a subclass that overrides ``cost`` (noise
        injection, instrumentation) or any other callable must be honored
        verbatim, so those fall back to the plain per-configuration path.
        """
        owner = getattr(cost_fn, "__self__", None)
        if not (
            hasattr(owner, "costs_into") and hasattr(owner, "mask_universe")
        ):
            return None
        func = getattr(cost_fn, "__func__", None)
        for klass in type(owner).__mro__:
            if "costs_into" in vars(klass):
                return owner if vars(klass).get("cost") is func else None
        return None

    def _mask_of(self, subset: AbstractSet[Index]) -> int:
        mask = 0
        for index in subset:
            bit = self._bit_of.get(index)
            if bit is not None:
                mask |= bit
        return mask

    def _set_of(self, mask: int) -> FrozenSet[Index]:
        subsets = self._subsets
        if subsets is not None:
            return subsets[mask]
        return frozenset(
            ix for i, ix in enumerate(self._indices) if mask & (1 << i)
        )

    def _delta_masks(self, old: int, new: int) -> float:
        return self._delta_table.delta(old, new)

    def _checked_w(self, values: Sequence[float]) -> List[float]:
        """``values`` as floats, if there is exactly one per local mask."""
        w = [float(v) for v in values]
        if len(w) != self._size:
            raise ValueError(
                f"work-function snapshot has {len(w)} values; this part "
                f"tracks {self._size} configurations"
            )
        return w

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

    @property
    def kernel_backend(self) -> str:
        """Which work-function kernel runs this part (``numpy``/``python``)."""
        return self._kernel.backend

    def recommend(self) -> FrozenSet[Index]:
        """``WFA.recommend()`` of Figure 3."""
        return self._set_of(self._rec)

    def work_function(self) -> Dict[FrozenSet[Index], float]:
        """Snapshot of ``w[S]`` for every configuration (for repartitioning)."""
        values = self._kernel.export_w()
        return {self._set_of(mask): values[mask] for mask in range(self._size)}

    # -- checkpoint hooks ----------------------------------------------------

    def export_state(self) -> Dict[str, object]:
        """JSON-ready mutable state (checkpoint hook).

        Work-function values are exported by *local mask*; the mask
        positions are defined by the part's sorted index order, which is
        deterministic, so a peer constructed over the same index set
        decodes them identically. The part's indices themselves are
        serialized by the owner (WFIT), not here. The document layout is
        kernel-independent: a checkpoint taken on the numpy backend
        restores onto the pure-Python one (and vice versa) unchanged.
        """
        return {
            "w": self._kernel.export_w(),
            "recommendation_mask": self._rec,
            "statements_analyzed": self._statements_analyzed,
        }

    def load_state(self, state: Dict[str, object]) -> None:
        """Adopt state exported by :meth:`export_state` from a peer with the
        same index set."""
        w = self._checked_w(state["w"])
        rec = int(state["recommendation_mask"])
        if not 0 <= rec < self._size:
            raise ValueError(f"recommendation mask {rec} outside the part")
        self._kernel.load_w(w)
        self._rec = rec
        self._statements_analyzed = int(state["statements_analyzed"])

    def reset_statement_count(self) -> None:
        """Restart :attr:`statements_analyzed` at 0, the count of a freshly
        built part (WFIT's repartition keeps an unchanged part's instance)."""
        self._statements_analyzed = 0

    def work_value(self, subset: AbstractSet[Index]) -> float:
        return self._kernel.work_value(self._mask_of(subset))

    def min_work(self) -> float:
        """``min_S w_n(S)`` — the optimal total work within this part."""
        return self._kernel.min_work()

    # -- the algorithm -----------------------------------------------------------

    def _fill_costs(self, statement: object) -> None:
        """Fetch ``cost(q, S)`` for all 2^k configurations into the kernel's
        cost vector (no intermediate list on the mask-provider path)."""
        out = self._kernel.costs
        if self._global_masks is not None:
            self._mask_provider.costs_into(statement, self._global_masks, out)
            return
        subsets = self._subsets
        if subsets is None:
            indices = self._indices
            subsets = self._subsets = [
                frozenset(
                    ix for i, ix in enumerate(indices) if mask & (1 << i)
                )
                for mask in range(self._size)
            ]
        cost_fn = self._cost_fn
        for mask, subset in enumerate(subsets):
            out[mask] = cost_fn(statement, subset)

    def prepare_statement(self, statement: object) -> None:
        """Phase 1 of :meth:`analyze_statement`: fetch the statement's costs.

        This is the half of the update that touches *shared* state — the
        what-if optimizer's statement memo and plan-template cache (and
        their accounting counters). After it returns, the part's cost
        vector is fully populated and :meth:`relax` needs nothing outside
        this instance.
        """
        self._fill_costs(statement)

    def relax(self) -> FrozenSet[Index]:
        """Phase 2 of :meth:`analyze_statement`: run the kernel update.

        Stage 1 (the per-dimension min-plus relaxation) and stage 2 (the
        fused minimum-score scan under the p[S] membership condition, with
        the Appendix-B tie-break) both run inside the array kernel. Reads
        and writes only state owned by this instance: the kernel's
        ``w``/cost/scratch buffers (see :mod:`repro.core.wfa_kernel`),
        ``_rec``, and ``_statements_analyzed``.
        """
        self._statements_analyzed += 1
        if obs.state.enabled:
            hist = self._relax_hist
            if hist is None:
                hist = self._relax_hist = obs.default_registry().histogram(
                    "repro_wfa_relax_seconds",
                    help="Wall time of one per-part kernel relaxation, by "
                         "backend and tracked-state count.",
                    labels={
                        "backend": self.kernel_backend,
                        "states": str(self._size),
                    },
                )
            started = time.perf_counter()
            self._rec = self._kernel.analyze(self._rec)
            hist.observe(time.perf_counter() - started)
        else:
            self._rec = self._kernel.analyze(self._rec)
        return self.recommend()

    def analyze_statement(self, statement: object) -> FrozenSet[Index]:
        """``WFA.analyzeQuery`` of Figure 3; returns the new recommendation.

        Exactly :meth:`prepare_statement` followed by :meth:`relax` — WFIT
        calls the two phases separately so its spans time the shared-cache
        phase and the kernel phase apart.
        """
        self.prepare_statement(statement)
        return self.relax()

    def scores(self) -> Dict[FrozenSet[Index], float]:
        """Current ``score(S) = w[S] + δ(S, currRec)`` for every S (debug/tests)."""
        values = self._kernel.export_w()
        return {
            self._set_of(mask): values[mask] + self._delta_masks(mask, self._rec)
            for mask in range(self._size)
        }

    # -- feedback (Figure 4, per-part body) -----------------------------------------

    def apply_feedback(
        self, f_plus: AbstractSet[Index], f_minus: AbstractSet[Index]
    ) -> FrozenSet[Index]:
        """Apply DBA votes to this part; returns the adjusted recommendation.

        Implements the body of ``WFIT.feedback`` (Figure 4): switch the
        recommendation to the consistent configuration, then raise work
        function values so every configuration respects the score bound
        (5.1) relative to the new recommendation.
        """
        plus_mask = self._mask_of(f_plus)
        minus_mask = self._mask_of(f_minus)
        if plus_mask & minus_mask:
            raise ValueError("F+ and F- must be disjoint")
        self._rec = self._kernel.feedback(plus_mask, minus_mask, self._rec)
        return self.recommend()
