# reprolint: zone=deterministic
"""WFIT: the end-to-end semi-automatic index tuning algorithm (§5).

WFIT runs one :class:`~repro.core.wfa_plus.WFAPlus` (the WFA⁺
recommendation logic, owner of every part's work function) and adds what
§5 puts around it:

* **Feedback** (Figure 4): positive/negative DBA votes switch each part's
  recommendation to the consistent configuration and raise work-function
  values so bound (5.1) holds — the state looks as if the *workload* had
  led WFIT to the voted configuration, which is what makes recovery from
  bad advice possible. WFIT keeps the bookkeeping (U, the vote counters);
  WFA⁺ applies the votes to its parts.
* **Automatic candidate maintenance** (Figures 5–7): per statement,
  ``chooseCands`` mines candidate indices, updates benefit/interaction
  statistics from the statement's IBG, picks the top candidates, and
  re-partitions them; WFA⁺'s ``repartition`` then rebuilds the changed
  parts, initializing each new part's work function from the old ones so
  that no accumulated evidence is lost.

Passing ``fixed_partition`` disables candidate maintenance, yielding the
configuration most of the paper's experiments use (WFIT ≡ WFA⁺ + feedback).

:meth:`WFIT.analyze_statement` steps WFA⁺ in its two phases: every part's
cost fetch through the shared what-if optimizer
(:meth:`~repro.core.wfa_plus.WFAPlus.prepare_statement`), then every
part's kernel relaxation (:meth:`~repro.core.wfa_plus.WFAPlus.relax`).
The ``wfit.prepare`` / ``wfit.relax`` spans time the two phases
separately.
"""

from __future__ import annotations

import random
from bisect import insort
from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .. import obs
from ..db.index import Index
from ..ibg.analysis import degree_of_interaction, max_benefit
from ..ibg.graph import IndexBenefitGraph
from ..optimizer.extract import extract_indices
from ..optimizer.whatif import WhatIfOptimizer
from .candidates import IndexStatistics, top_indices
from .partitioning import choose_partition
from .wfa_plus import WFAPlus

# Module-cached WFIT counters (statements analyzed, repartitions) on the
# default registry; lazy so importing this module registers nothing.
_WFIT_COUNTERS: List[object] = []


def _wfit_counters():
    if not _WFIT_COUNTERS:
        registry = obs.default_registry()
        _WFIT_COUNTERS.append(registry.counter(
            "repro_wfit_statements_total",
            help="Statements analyzed by WFIT.analyze_statement.",
        ))
        _WFIT_COUNTERS.append(registry.counter(
            "repro_wfit_repartitions_total",
            help="Stable-partition rebuilds (candidate churn).",
        ))
    return _WFIT_COUNTERS

__all__ = ["WFIT"]


class WFIT:
    """The semi-automatic index advisor.

    Parameters
    ----------
    optimizer:
        The what-if interface (supplies ``cost`` and, in auto mode, the IBG).
    transitions:
        δ provider (``create_cost`` / ``drop_cost``).
    initial_config:
        ``S0``: indices materialized when tuning starts.
    idx_cnt / state_cnt / hist_size:
        The knobs of Figure 6 — bounds on monitored indices, tracked
        configurations ``Σ 2^|Ck|``, and per-statistic history length.
        In auto mode ``state_cnt`` must hold every monitored index as a
        singleton part, ``2 · max(idx_cnt, |S0|) ≤ state_cnt``, or the
        constructor raises :class:`ValueError`.
    rand_cnt:
        Randomized iterations inside ``choosePartition`` (Figure 7).
    fixed_partition:
        When given, candidate maintenance is disabled and recommendations
        are drawn from this stable partition for the whole workload (the
        §6.1 experimental configuration).
    assume_independence:
        The WFIT-IND variant: every candidate is kept in a singleton part
        and interaction statistics are ignored (``doi ≡ 0``).
    seed:
        Seed for the randomized partitioning.
    """

    def __init__(
        self,
        optimizer: WhatIfOptimizer,
        transitions,
        initial_config: AbstractSet[Index] = frozenset(),
        idx_cnt: int = 40,
        state_cnt: int = 500,
        hist_size: int = 100,
        rand_cnt: int = 100,
        fixed_partition: Optional[Sequence[AbstractSet[Index]]] = None,
        assume_independence: bool = False,
        seed: int = 0,
        max_ibg_nodes: int = 4096,
        create_penalty_factor: Optional[float] = None,
        partition_refresh_period: int = 10,
    ) -> None:
        self._optimizer = optimizer
        self._transitions = transitions
        self._initial_config = frozenset(initial_config)
        self.idx_cnt = idx_cnt
        self.state_cnt = state_cnt
        self.hist_size = hist_size
        self.rand_cnt = rand_cnt
        self.assume_independence = assume_independence
        self.create_penalty_factor = create_penalty_factor
        if partition_refresh_period < 1:
            raise ValueError("partition_refresh_period must be >= 1")
        self.partition_refresh_period = partition_refresh_period
        if fixed_partition is None and not assume_independence:
            # Auto mode monitors up to max(idxCnt, |S0|) indices, and the
            # partition search needs room for all of them as singletons.
            monitored = max(idx_cnt, len(self._initial_config))
            if 2 * monitored > state_cnt:
                raise ValueError(
                    f"stateCnt={state_cnt} cannot hold {monitored} monitored "
                    f"indices as singleton parts (needs {2 * monitored}); "
                    "raise state_cnt or lower idx_cnt"
                )
        self._rng = random.Random(seed)
        self._max_ibg_nodes = max_ibg_nodes
        self._cost_fn = optimizer.cost

        self._n = 0  # statements analyzed so far
        # DBA-interaction recency: how many feedback calls have been
        # applied, and the statement count at the latest one. The
        # service layer's adoption-lag reporting (and the Figure 11
        # cross-check) read these; they never influence tuning.
        self._feedback_count = 0
        self._last_feedback_position: Optional[int] = None
        self.statistics = IndexStatistics(hist_size)
        # U of Figure 6, as a set and in index order (top_indices ranks
        # it in that order); _grow_universe keeps the two in step.
        self._universe: set = set(self._initial_config)
        self._ordered_universe: List[Index] = sorted(self._universe)
        self.repartition_count = 0

        self._auto = fixed_partition is None
        # In auto mode, Figure 4's initialization: C = S0 in singleton parts.
        parts = fixed_partition if fixed_partition is not None else [
            frozenset({index}) for index in sorted(self._initial_config)
        ]
        self._plus = WFAPlus(
            parts, self._initial_config, self._cost_fn, transitions
        )

    # -- introspection -------------------------------------------------------

    @property
    def candidates(self) -> FrozenSet[Index]:
        """C: the union of all monitored parts."""
        return self._plus.candidates

    @property
    def partition(self) -> Tuple[FrozenSet[Index], ...]:
        return self._plus.partition

    @property
    def universe(self) -> FrozenSet[Index]:
        """U: every index ever seen (monitored or not)."""
        return frozenset(self._universe)

    @property
    def statements_analyzed(self) -> int:
        return self._n

    @property
    def feedback_count(self) -> int:
        """How many feedback (vote) calls have been applied."""
        return self._feedback_count

    @property
    def feedback_lag(self) -> Optional[int]:
        """Statements analyzed since the last feedback (None: never any)."""
        if self._last_feedback_position is None:
            return None
        return self._n - self._last_feedback_position

    @property
    def tracked_states(self) -> int:
        return self._plus.state_count

    @property
    def kernel_backend(self) -> str:
        """The work-function kernel backend(s) the parts run on (mixed
        partitions report e.g. ``"numpy+python"``)."""
        return self._plus.kernel_backend

    def recommend(self) -> FrozenSet[Index]:
        """``WFIT.recommend()``: the current recommendation ⋃_k currRec_k."""
        return self._plus.recommend()

    def _grow_universe(self, indices: Iterable[Index]) -> None:
        """Add ``indices`` to U, keeping its index order: only the indices
        new to U are compared, each placed by binary search."""
        for index in sorted(set(indices) - self._universe):
            insort(self._ordered_universe, index)
            self._universe.add(index)

    # -- statistics maintenance (updateStats of Figure 6) ------------------------

    def _update_statistics(
        self,
        extracted: FrozenSet[Index],
        graphs: Dict[str, IndexBenefitGraph],
        position: int,
    ) -> FrozenSet[Index]:
        """Record β and doi at ``position`` for indices relevant to this
        statement, each read from its own table's graph."""
        relevant = frozenset().union(*(
            (extracted | graph.all_used_indices()) & graph.candidates
            for graph in graphs.values()
        ))
        ordered = sorted(relevant)
        for index in ordered:
            beta = max_benefit(graphs[index.table], index)
            self.statistics.record_benefit(index, position, beta)
        if not self.assume_independence:
            for i, a in enumerate(ordered):
                for b in ordered[i + 1:]:
                    if a.table != b.table:
                        continue  # cross-table doi is 0 in this cost model
                    doi = degree_of_interaction(graphs[a.table], a, b)
                    self.statistics.record_interaction(a, b, position, doi)
        return relevant

    # -- chooseCands (Figure 6) ---------------------------------------------------

    def _choose_candidates(
        self, statement: object, position: int
    ) -> List[FrozenSet[Index]]:
        extracted = frozenset(extract_indices(statement))
        # The graphs are built before U grows or anything is recorded, so
        # a statement the optimizer cannot price leaves the tuner as it was.
        graphs = self._optimizer.statement_ibg(
            statement, self._universe | extracted,
            max_nodes=self._max_ibg_nodes,
        )
        self._grow_universe(extracted)
        self._update_statistics(extracted, graphs, position)

        materialized = set(self.recommend())
        # U minus the materialized indices, still in index order.
        pool = [
            index for index in self._ordered_universe
            if index not in materialized
        ]
        chosen = top_indices(
            pool,
            self.idx_cnt - len(materialized),
            self.candidates,
            self.statistics,
            position,
            self._transitions,
            create_penalty_factor=self.create_penalty_factor,
        )
        monitored = frozenset(materialized | set(chosen))

        if self.assume_independence:
            return [frozenset({index}) for index in sorted(monitored)]
        # The full randomized partition search runs when the monitored set
        # changed or every partition_refresh_period statements; in between,
        # the current grouping (restricted/extended to the monitored set) is
        # kept. This bounds choosePartition's overhead without changing the
        # configuration space WFIT draws from.
        refresh = (
            monitored != self.candidates
            or position % self.partition_refresh_period == 0
        )
        if not refresh:
            return list(self.partition)
        doi = self.statistics.doi_lookup(position)
        return choose_partition(
            monitored,
            self.state_cnt,
            self.partition,
            doi,
            self._rng,
            rand_cnt=self.rand_cnt,
        )

    # -- repartition (Figure 5) ------------------------------------------------------

    def _repartition(self, new_parts: Sequence[FrozenSet[Index]]) -> None:
        """Adopt a new stable partition; WFA⁺ warm-starts the changed parts
        from the old work functions (Figure 5, lines 6–7)."""
        self._plus.repartition(new_parts, self._initial_config)
        self.repartition_count += 1
        if obs.state.enabled:
            _wfit_counters()[1].inc()

    # -- the public interface (Figure 4) ------------------------------------------------

    def analyze_statement(self, statement: object) -> FrozenSet[Index]:
        """``WFIT.analyzeQuery(q)``: maintain candidates, then run WFA⁺.

        Every part's costs are fetched first, then every part is relaxed,
        both in fixed part order. The statement counts as analyzed once
        its costs are fetched: a statement the optimizer cannot price
        raises before the count, U or any statistic changes. A table or
        column unknown to the optimizer's statistics raises
        :class:`~repro.db.schema.SchemaError` before anything runs, the
        partition search's random draws included.
        """
        self._optimizer.stats.bind(statement)
        position = self._n + 1
        with obs.span("wfit.analyze"):
            if self._auto:
                with obs.span("wfit.choose_candidates"):
                    new_parts = self._choose_candidates(statement, position)
                if set(new_parts) != set(self.partition):
                    self._repartition(new_parts)
            with obs.span("wfit.prepare"):
                self._plus.prepare_statement(statement)
            self._n = position
            with obs.span("wfit.relax"):
                self._plus.relax()
        if obs.state.enabled:
            _wfit_counters()[0].inc()
        return self.recommend()

    def feedback(
        self, f_plus: AbstractSet[Index], f_minus: AbstractSet[Index]
    ) -> FrozenSet[Index]:
        """``WFIT.feedback(F+, F−)``: apply DBA votes (Figure 4).

        Votes on indices outside the monitored set C cannot be represented
        in any part's configuration space; positive such votes are added to
        the universe U so the index can enter C at the next repartition.
        """
        plus = frozenset(f_plus)
        recommendation = self._plus.feedback(plus, f_minus)
        self._grow_universe(plus)
        self._feedback_count += 1
        self._last_feedback_position = self._n
        return recommendation

    def notify_materialized(self, created: AbstractSet[Index], dropped: AbstractSet[Index]) -> FrozenSet[Index]:
        """Implicit feedback: the DBA changed the physical configuration
        out-of-band (§3.1). Creates count as positive votes, drops negative."""
        return self.feedback(created, dropped)

    # -- checkpoint hooks ----------------------------------------------------

    #: Format version of :meth:`export_state` documents.
    STATE_VERSION = 1

    def export_state(self) -> Dict[str, object]:
        """The tuner's full mutable state as a JSON-ready document.

        Captures everything a peer needs to continue step-identically:
        the partition and per-part work-function values, candidate
        benefit/interaction statistics, the universe U, the randomized
        partitioner's RNG state, and the construction knobs. Restore with
        :meth:`restore_state` against an equivalent optimizer/δ provider.
        """
        rng_version, rng_internal, rng_gauss = self._rng.getstate()
        return {
            "version": self.STATE_VERSION,
            "auto": self._auto,
            "statements_analyzed": self._n,
            "repartition_count": self.repartition_count,
            "feedback_count": self._feedback_count,
            "last_feedback_position": self._last_feedback_position,
            "options": {
                "idx_cnt": self.idx_cnt,
                "state_cnt": self.state_cnt,
                "hist_size": self.hist_size,
                "rand_cnt": self.rand_cnt,
                "assume_independence": self.assume_independence,
                "create_penalty_factor": self.create_penalty_factor,
                "partition_refresh_period": self.partition_refresh_period,
                "max_ibg_nodes": self._max_ibg_nodes,
            },
            "initial_config": [
                ix.to_payload() for ix in sorted(self._initial_config)
            ],
            "universe": [ix.to_payload() for ix in self._ordered_universe],
            "rng_state": [rng_version, list(rng_internal), rng_gauss],
            "statistics": self.statistics.export_state(),
            "parts": self._plus.export_state(),
        }

    @classmethod
    def restore_state(
        cls, optimizer: WhatIfOptimizer, transitions, state: Dict[str, object]
    ) -> "WFIT":
        """Rebuild a tuner from an :meth:`export_state` document.

        The optimizer and δ provider must be equivalent to the originals
        (same cost model and statistics): costs are deterministic functions
        of ``(statement, configuration)``, so an equivalent substrate plus
        this state yields step-identical recommendations.
        """
        version = state.get("version")
        if version != cls.STATE_VERSION:
            raise ValueError(
                f"unsupported WFIT state version {version!r} "
                f"(expected {cls.STATE_VERSION})"
            )
        options = state["options"]
        initial = frozenset(
            Index.from_payload(p) for p in state["initial_config"]
        )
        parts = [
            frozenset(Index.from_payload(p) for p in item["indices"])
            for item in state["parts"]
        ]
        auto = bool(state["auto"])
        tuner = cls(
            optimizer,
            transitions,
            initial_config=initial,
            idx_cnt=int(options["idx_cnt"]),
            state_cnt=int(options["state_cnt"]),
            hist_size=int(options["hist_size"]),
            rand_cnt=int(options["rand_cnt"]),
            fixed_partition=None if auto else parts,
            assume_independence=bool(options["assume_independence"]),
            max_ibg_nodes=int(options["max_ibg_nodes"]),
            create_penalty_factor=options["create_penalty_factor"],
            partition_refresh_period=int(options["partition_refresh_period"]),
        )
        tuner._n = int(state["statements_analyzed"])
        tuner.repartition_count = int(state["repartition_count"])
        tuner._feedback_count = int(state["feedback_count"])
        last_feedback = state["last_feedback_position"]
        tuner._last_feedback_position = (
            None if last_feedback is None else int(last_feedback)
        )
        tuner._universe = {
            Index.from_payload(p) for p in state["universe"]
        }
        tuner._ordered_universe = sorted(tuner._universe)
        tuner.statistics = IndexStatistics.from_state(state["statistics"])
        rng_version, rng_internal, rng_gauss = state["rng_state"]
        tuner._rng.setstate(
            (int(rng_version), tuple(int(v) for v in rng_internal), rng_gauss)
        )
        # Repartitions may have dropped an S0 index from C.
        candidates = frozenset().union(*parts)
        tuner._plus = WFAPlus(
            parts, initial & candidates, tuner._cost_fn, transitions
        )
        tuner._plus.load_state(state["parts"])
        return tuner
