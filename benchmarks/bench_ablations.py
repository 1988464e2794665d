"""Ablations for the reproduction's calibration choices.

Three design decisions deviate from or refine the paper's letter (see
README.md, "Calibration choices"), and each gets an ablation that
regenerates the evidence for it:

1. **Amortized creation charge in topIndices** — the paper subtracts the raw
   δ⁺ from a per-statement benefit average; in this cost model that locks
   every new index out of the monitored set. The ablation compares AUTO
   under the raw charge (factor=1.0) vs the amortized default (1/histSize).
2. **histSize** — the window length behind benefit*/doi* (paper default 100).
3. **Partition refresh period** — how often the randomized choosePartition
   search re-runs (the paper re-runs per statement; the default here is
   every 10 statements plus whenever the monitored set changes).
"""

from __future__ import annotations

from repro.bench import FigureResult
from repro.core.driver import run_online
from repro.core.wfit import WFIT


def _auto_ratio(context, **wfit_options):
    tuner = WFIT(
        context.optimizer, context.transitions,
        idx_cnt=40, state_cnt=500, seed=1, **wfit_options,
    )
    result = run_online(
        tuner, context.statements, context.optimizer.cost, context.transitions
    )
    return context.ratio_series(result.total_work_series), tuner


def test_ablation_create_penalty(benchmark, context, save_result):
    def run():
        result = FigureResult(
            name="Ablation create-penalty",
            description="topIndices creation charge: amortized vs paper-raw",
        )
        series, _ = _auto_ratio(context)  # default: 1/hist_size
        result.add_curve("amortized", series)
        series, tuner = _auto_ratio(context, create_penalty_factor=1.0)
        result.add_curve("raw (paper)", series)
        result.notes.append(
            "raw charge admits new indices only if a single statement's "
            "average benefit exceeds the full creation cost"
        )
        return result

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(result)
    assert result.final_ratio("amortized") >= result.final_ratio("raw (paper)") - 0.05


def test_ablation_hist_size(benchmark, context, save_result):
    def run():
        result = FigureResult(
            name="Ablation histSize",
            description="benefit*/doi* history window length",
        )
        for hist_size in (25, 100, 400):
            series, _ = _auto_ratio(context, hist_size=hist_size)
            result.add_curve(f"histSize={hist_size}", series)
        return result

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(result)
    finals = [result.final_ratio(label) for label in result.curves]
    assert max(finals) - min(finals) < 0.5, "histSize should not be make-or-break"


def test_ablation_refresh_period(benchmark, context, save_result):
    def run():
        result = FigureResult(
            name="Ablation refresh-period",
            description="choosePartition randomized-search cadence",
        )
        for period in (1, 10, 50):
            series, tuner = _auto_ratio(context, partition_refresh_period=period)
            result.add_curve(f"refresh={period}", series)
            result.notes.append(
                f"refresh={period}: {tuner.repartition_count} repartitions"
            )
        return result

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(result)
    dense = result.final_ratio("refresh=1")
    sparse = result.final_ratio("refresh=50")
    assert abs(dense - sparse) < 0.35, (
        "quality should degrade gracefully with sparser refreshes"
    )
