# reprolint: zone=deterministic
"""Online tuning driver: totWork accounting and DBA interaction models.

``run_online`` feeds a workload to a tuning algorithm and accounts the total
work metric of §3.1:

    totWork(A, Q_N, V) = Σ_n  cost(q_n, S_n) + δ(S_{n−1}, S_n)

where ``S_n`` is the configuration in effect for statement ``n``. Three DBA
models from the experiments are supported:

* **Immediate adoption** (``adopt_period=1``): every recommendation is
  adopted — the convention of the baseline/feedback experiments.
* **Lagged adoption** (``adopt_period=T``, Figure 11): the DBA requests and
  accepts the recommendation every ``T`` statements; acceptance casts the
  implicit lease-renewing feedback (positive votes on the accepted set,
  negative on what it drops).
* **Vote streams** (Figures 9/10): explicit ``FeedbackEvent``s applied after
  the statement at their position (position −1 = before the workload).
"""

from __future__ import annotations

import time

# Reporting-only wall-clock seam: every timing read in this module
# flows through this alias so the R1 exemption is a single audited
# point rather than scattered call sites.
_perf_counter = time.perf_counter  # reprolint: disable=R1(feeds wall_time reporting only, never tuning state; bit-identity tests cover outputs)
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Sequence

from ..db.index import Index
from .opt import FeedbackEvent
from .wfa import CostFunction

__all__ = ["TuningPoint", "TuningResult", "run_online"]


@dataclass(frozen=True)
class TuningPoint:
    """Per-statement accounting record.

    ``cumulative_total_work`` is the *realized* series: costs under the
    configurations actually in effect given the run's DBA model. The
    ``recommended_*`` fields (populated when ``run_online`` is called
    with ``track_recommended=True``, 0.0 otherwise) account the same
    statement under the algorithm's *instantaneous* recommendation —
    immediate adoption, the autonomous-WFIT series — so the gap between
    the two cumulatives prices the DBA's adoption lag (Figure 11).
    """

    position: int
    configuration: FrozenSet[Index]
    query_cost: float
    transition_cost: float
    cumulative_total_work: float
    recommended_query_cost: float = 0.0
    recommended_transition_cost: float = 0.0
    cumulative_recommended_work: float = 0.0


@dataclass
class TuningResult:
    """Outcome of one online tuning run."""

    points: List[TuningPoint]
    wall_time_seconds: float
    whatif_calls: int = 0
    optimizations: int = 0
    #: Whether the recommended (immediate-adoption) series was tracked.
    tracked_recommended: bool = False

    @property
    def total_work(self) -> float:
        return self.points[-1].cumulative_total_work if self.points else 0.0

    @property
    def total_work_series(self) -> List[float]:
        return [point.cumulative_total_work for point in self.points]

    @property
    def recommended_total_work(self) -> float:
        """Final immediate-adoption totWork (0.0 unless tracked)."""
        return (
            self.points[-1].cumulative_recommended_work if self.points else 0.0
        )

    @property
    def recommended_total_work_series(self) -> List[float]:
        return [point.cumulative_recommended_work for point in self.points]

    @property
    def final_configuration(self) -> FrozenSet[Index]:
        return self.points[-1].configuration if self.points else frozenset()


def _group_events(
    events: Iterable[FeedbackEvent],
) -> Dict[int, List[FeedbackEvent]]:
    grouped: Dict[int, List[FeedbackEvent]] = {}
    for event in events:
        grouped.setdefault(event.position, []).append(event)
    return grouped


def run_online(
    algorithm,
    workload: Sequence[object],
    cost_fn: CostFunction,
    transitions,
    initial_config: AbstractSet[Index] = frozenset(),
    feedback_events: Iterable[FeedbackEvent] = (),
    adopt_period: int = 1,
    lease_feedback: bool = True,
    optimizer=None,
    track_recommended: bool = False,
) -> TuningResult:
    """Run ``algorithm`` over ``workload`` and account total work.

    Parameters
    ----------
    algorithm:
        Must expose ``analyze_statement(stmt)`` and ``recommend()``;
        ``feedback(F+, F−)`` is required only when vote streams or lagged
        adoption with lease feedback are used.
    cost_fn / transitions:
        The what-if cost interface and δ provider used for *accounting*
        (the same objects the algorithm itself uses, so the evaluation is
        under the optimizer's cost model as in §6.1).
    initial_config:
        S0, the configuration in effect before the first adoption.
    feedback_events:
        Explicit vote stream V (position −1 applies before statement 0).
    adopt_period:
        The DBA accepts the current recommendation every this many
        statements (1 = immediate adoption).
    lease_feedback:
        Whether acceptance casts implicit votes (Figure 11 semantics).
    optimizer:
        Optional :class:`~repro.optimizer.whatif.WhatIfOptimizer` whose
        call counters should be captured in the result.
    track_recommended:
        Also account every statement under the algorithm's
        *instantaneous* recommendation (immediate adoption), filling the
        ``recommended_*`` fields of each point — the reference series
        the realized (lagged) one is compared against. Accounting-only:
        it never feeds anything back to the algorithm, so the realized
        series is bit-identical with the flag on or off.
    """
    if adopt_period < 1:
        raise ValueError("adopt_period must be >= 1")
    events = _group_events(feedback_events)
    points: List[TuningPoint] = []
    in_effect = frozenset(initial_config)
    cumulative = 0.0
    recommended_config = frozenset(initial_config)
    recommended_cumulative = 0.0
    calls_before = optimizer.whatif_calls if optimizer is not None else 0
    optimizations_before = optimizer.optimizations if optimizer is not None else 0
    started = _perf_counter()

    for event in events.get(-1, ()):
        algorithm.feedback(event.f_plus, event.f_minus)

    for position, statement in enumerate(workload):
        algorithm.analyze_statement(statement)
        # The recommended series samples the recommendation *here* —
        # after analysis, before any feedback at this position — the
        # same instant the service engine's recommended accounting does,
        # so the two series cross-check exactly. recommend() is
        # read-only: the realized series below is unaffected.
        recommended_query_cost = 0.0
        recommended_transition = 0.0
        if track_recommended:
            recommendation = algorithm.recommend()
            if recommendation != recommended_config:
                recommended_transition = transitions.delta(
                    recommended_config, recommendation
                )
                recommended_config = recommendation
            recommended_query_cost = cost_fn(statement, recommended_config)
            recommended_cumulative += (
                recommended_query_cost + recommended_transition
            )
        for event in events.get(position, ()):
            algorithm.feedback(event.f_plus, event.f_minus)

        transition = 0.0
        if (position + 1) % adopt_period == 0:
            accepted = algorithm.recommend()
            if accepted != in_effect:
                transition = transitions.delta(in_effect, accepted)
            if adopt_period > 1 and lease_feedback:
                dropped = in_effect - accepted
                algorithm.feedback(accepted, dropped)
            in_effect = accepted

        query_cost = cost_fn(statement, in_effect)
        cumulative += query_cost + transition
        points.append(TuningPoint(
            position=position,
            configuration=in_effect,
            query_cost=query_cost,
            transition_cost=transition,
            cumulative_total_work=cumulative,
            recommended_query_cost=recommended_query_cost,
            recommended_transition_cost=recommended_transition,
            cumulative_recommended_work=recommended_cumulative,
        ))

    elapsed = _perf_counter() - started
    result = TuningResult(
        points=points,
        wall_time_seconds=elapsed,
        tracked_recommended=track_recommended,
    )
    if optimizer is not None:
        result.whatif_calls = optimizer.whatif_calls - calls_before
        result.optimizations = optimizer.optimizations - optimizations_before
    return result
