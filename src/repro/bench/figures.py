"""Experiment drivers: one function per figure of the paper's §6.

Every function returns a :class:`FigureResult` whose curves map checkpoint
(query #) to the normalized metric ``totWork(OPT, Q_n) / totWork(A, Q_n)``
— the y-axis of Figures 8–12 ("Total Work Ratio, OPT = 1").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core.bc import BC
from ..core.driver import TuningResult, run_online
from ..core.wfit import WFIT
from .context import ExperimentContext

__all__ = [
    "FigureResult",
    "figure8_baseline",
    "figure9_feedback",
    "figure10_feedback_independent",
    "figure11_lag",
    "figure12_auto",
    "overhead_table",
]


@dataclass
class FigureResult:
    """Curves of one figure: label -> {query # -> total-work ratio}."""

    name: str
    description: str
    curves: Dict[str, Dict[int, float]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add_curve(self, label: str, series: Dict[int, float]) -> None:
        self.curves[label] = series

    def final_ratio(self, label: str) -> float:
        series = self.curves[label]
        return series[max(series)]

    def format_table(self) -> str:
        """Paper-style text table: one row per curve, one column per checkpoint."""
        checkpoints = sorted(next(iter(self.curves.values()))) if self.curves else []
        width = max((len(label) for label in self.curves), default=8)
        header = f"{self.name}: {self.description}"
        lines = [header, "-" * len(header)]
        lines.append(
            " " * (width + 2)
            + "".join(f"q={n:<8d}" for n in checkpoints)
        )
        for label, series in self.curves.items():
            row = f"{label:<{width}}  " + "".join(
                f"{series.get(n, float('nan')):<10.3f}" for n in checkpoints
            )
            lines.append(row)
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _run_and_ratio(
    context: ExperimentContext, algorithm, **run_kwargs
) -> Tuple[Dict[int, float], TuningResult]:
    result = run_online(
        algorithm,
        context.statements,
        context.optimizer.cost,
        context.transitions,
        optimizer=context.optimizer,
        **run_kwargs,
    )
    return context.ratio_series(result.total_work_series), result


def _default_state_cnt(context: ExperimentContext) -> int:
    """The paper's workhorse setting (500) when available, else the largest."""
    if 500 in context.partitions:
        return 500
    return max(context.partitions)


def _fresh_wfit(context: ExperimentContext, state_cnt: Optional[int] = None) -> WFIT:
    if state_cnt is None:
        state_cnt = _default_state_cnt(context)
    return WFIT(
        context.optimizer,
        context.transitions,
        fixed_partition=context.partition_for(state_cnt),
    )


def figure8_baseline(context: ExperimentContext) -> FigureResult:
    """Figure 8: baseline performance evaluation.

    WFIT under stateCnt ∈ {2000, 500, 100}, WFIT-IND (independence
    assumption), and BC, all over the same fixed candidate set, normalized
    to OPT. Expected shape: graceful degradation 2000 → 100, a larger drop
    for WFIT-IND, and BC clearly below WFIT.
    """
    result = FigureResult(
        name="Figure 8",
        description="baseline total-work ratio vs OPT (fixed stable partition)",
    )
    for state_cnt in sorted(context.partitions, reverse=True):
        series, _ = _run_and_ratio(context, _fresh_wfit(context, state_cnt))
        result.add_curve(f"WFIT-{state_cnt}", series)
    ind = WFIT(
        context.optimizer,
        context.transitions,
        fixed_partition=context.fixed.singleton_partition(),
    )
    series, _ = _run_and_ratio(context, ind)
    result.add_curve("WFIT-IND", series)
    bc = BC(
        context.fixed.candidates,
        frozenset(),
        context.optimizer.cost,
        context.transitions,
    )
    series, _ = _run_and_ratio(context, bc)
    result.add_curve("BC", series)
    return result


def figure9_feedback(
    context: ExperimentContext, vote_period: Optional[int] = None
) -> FigureResult:
    """Figure 9: the effect of DBA feedback (V_GOOD / none / V_BAD).

    Votes follow the prescient-DBA model: aligned with (resp. opposed to)
    the offline-optimal schedule, re-affirmed every ``vote_period``
    statements (default: one phase). Expected shape: GOOD above the
    baseline and approaching OPT; BAD below but recovering — never
    collapsing — as the workload overrides the erroneous votes.
    """
    period = vote_period if vote_period is not None else context.per_phase
    result = FigureResult(
        name="Figure 9",
        description="effect of DBA feedback",
    )
    good = context.opt_schedule.sustained_events(period, good=True)
    bad = context.opt_schedule.sustained_events(period, good=False)
    series, _ = _run_and_ratio(
        context, _fresh_wfit(context), feedback_events=good
    )
    result.add_curve("GOOD", series)
    series, _ = _run_and_ratio(context, _fresh_wfit(context))
    result.add_curve("WFIT", series)
    series, _ = _run_and_ratio(
        context, _fresh_wfit(context), feedback_events=bad
    )
    result.add_curve("BAD", series)
    result.notes.append(
        "votes re-affirmed every "
        f"{period} statements (see EXPERIMENTS.md on event-timed votes)"
    )
    return result


def figure10_feedback_independent(
    context: ExperimentContext, vote_period: Optional[int] = None
) -> FigureResult:
    """Figure 10: feedback under the independence assumption.

    WFIT-IND has inaccurate internal statistics (all interactions ignored),
    so good feedback should still lift it (the paper omits BAD here).
    """
    period = vote_period if vote_period is not None else context.per_phase
    result = FigureResult(
        name="Figure 10",
        description="DBA feedback under the independence assumption",
    )
    good = context.opt_schedule.sustained_events(period, good=True)

    def fresh_ind() -> WFIT:
        return WFIT(
            context.optimizer,
            context.transitions,
            fixed_partition=context.fixed.singleton_partition(),
        )

    series, _ = _run_and_ratio(context, fresh_ind(), feedback_events=good)
    result.add_curve("GOOD-IND", series)
    series, _ = _run_and_ratio(context, fresh_ind())
    result.add_curve("WFIT-IND", series)
    return result


def figure11_lag(
    context: ExperimentContext, lags: Tuple[int, ...] = (1, 25, 50, 75)
) -> FigureResult:
    """Figure 11: effect of delayed DBA responses.

    The DBA requests and accepts the recommendation every T statements
    (T=1 grants full autonomy). Acceptance renews the lease via implicit
    feedback. Expected: performance degrades with T but does not keep
    degrading — the curves flatten out.
    """
    result = FigureResult(
        name="Figure 11",
        description="effect of delayed responses (lag T)",
    )
    for lag in lags:
        label = "WFIT" if lag == 1 else f"LAG {lag}"
        series, _ = _run_and_ratio(
            context, _fresh_wfit(context), adopt_period=lag
        )
        result.add_curve(label, series)
    return result


def figure12_auto(
    context: ExperimentContext, state_cnt: Optional[int] = None
) -> FigureResult:
    """Figure 12: automatic maintenance of the stable partition.

    FIXED uses the offline-chosen partition for the whole workload; AUTO
    lets chooseCands/repartition evolve candidates online, monitoring up
    to the context's ``idx_cnt`` indices (the budget FIXED's candidate set
    was chosen with). Expected: AUTO
    at least matches FIXED and may exceed OPT early, because it can
    specialize candidates per phase while OPT is stuck with one set.
    """
    result = FigureResult(
        name="Figure 12",
        description="automatic maintenance of the stable partition",
    )
    if state_cnt is None:
        state_cnt = _default_state_cnt(context)
    auto = WFIT(
        context.optimizer,
        context.transitions,
        idx_cnt=context.idx_cnt,
        state_cnt=state_cnt,
        seed=1,
    )
    series, _ = _run_and_ratio(context, auto)
    result.add_curve("AUTO", series)
    result.notes.append(
        f"AUTO mined {len(auto.universe)} candidate indices and "
        f"changed the stable partition {auto.repartition_count} times"
    )
    series, _ = _run_and_ratio(context, _fresh_wfit(context, state_cnt))
    result.add_curve("FIXED", series)
    return result


def overhead_table(context: ExperimentContext) -> FigureResult:
    """§6.2 overhead: per-statement analysis time and what-if optimizations.

    The paper reports ~300 ms per query for WFIT over DB2, 5–100 what-if
    optimizations per query, and a ~25× overhead reduction when dropping
    stateCnt to 100. Wall-clock numbers here are for the pure-Python
    substrate; the machine-independent metric is optimizer calls/statement.
    """
    result = FigureResult(
        name="Overhead",
        description="per-statement overhead (ms and what-if optimizations)",
    )
    n_statements = len(context.statements)

    def _overhead_curve(run: TuningResult) -> Dict[int, float]:
        # Counters were reset before the run, so the optimizer's derived
        # hit rates are this run's rates.
        cache = context.optimizer.cache_stats()
        return {
            1: run.wall_time_seconds * 1000.0 / n_statements,   # ms/stmt
            2: run.optimizations / n_statements,                # optimizations/stmt
            3: run.whatif_calls / n_statements,                 # cost lookups/stmt
            4: cache["statement_hit_rate"],                     # stmt-memo hit rate
            5: cache["template_hit_rate"],                      # template-cache hit rate
            6: cache["template_builds"] / n_statements,         # template builds/stmt
        }

    for state_cnt in sorted(context.partitions, reverse=True):
        context.optimizer.clear_cache()
        context.optimizer.reset_counters()
        wfit = _fresh_wfit(context, state_cnt)
        _, run = _run_and_ratio(context, wfit)
        result.add_curve(f"WFIT-{state_cnt}", _overhead_curve(run))
    context.optimizer.clear_cache()
    context.optimizer.reset_counters()
    auto = WFIT(
        context.optimizer, context.transitions, idx_cnt=context.idx_cnt,
        state_cnt=_default_state_cnt(context), seed=1,
    )
    _, run = _run_and_ratio(context, auto)
    result.add_curve("WFIT-AUTO", _overhead_curve(run))
    result.notes.append(
        "columns: q=1 → ms per statement; q=2 → optimizer plan "
        "optimizations per statement (template builds); "
        "q=3 → cached cost lookups per statement; "
        "q=4 → what-if statement-cache hit rate; q=5 → plan-template-cache "
        "hit rate; q=6 → template builds per statement"
    )
    return result
