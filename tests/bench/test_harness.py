"""Tests for the experiment harness (context construction, figure drivers)."""

from __future__ import annotations

import pytest

from repro.bench import (
    FigureResult,
    figure11_lag,
    figure8_baseline,
    get_context,
)
from repro.bench.context import ExperimentContext
from repro.bench.figures import _default_state_cnt
from repro.service.engine import TuningEngine


def figure11_lag_engine(context: ExperimentContext, lags) -> FigureResult:
    """Figure 11 replayed through the service engine's live accounting.

    The lagged-DBA model of :func:`figure11_lag`, driven through
    :class:`TuningEngine` as a client would: statements are submitted and
    pumped one at a time, and every T statements the DBA adopts the
    current recommendation (``lease=lag > 1`` is ``run_online``'s
    convention of casting lease feedback only for a lagged DBA). The
    curves are the engine's realized totWork ratio, the series
    ``metrics()["realized_total_work"]`` reports.
    """
    result = FigureResult(
        name="Figure 11 (engine)",
        description="effect of delayed responses, engine realized totWork",
    )
    for lag in lags:
        label = "WFIT" if lag == 1 else f"LAG {lag}"
        engine = TuningEngine(
            context.optimizer,
            context.transitions,
            batch_size=1,
            fixed_partition=context.partition_for(_default_state_cnt(context)),
        )
        series = []
        for position, statement in enumerate(context.statements):
            engine.submit("dba", statement)
            engine.pump()
            if (position + 1) % lag == 0:
                engine.adopt("dba", lease=lag > 1)
            series.append(engine.realized_total_work)
        engine.close()
        result.add_curve(label, context.ratio_series(series))
    return result


@pytest.fixture(scope="module")
def tiny_context() -> ExperimentContext:
    """A deliberately tiny context so harness tests stay fast."""
    return get_context(
        per_phase=6, scale=0.02, seed=5, idx_cnt=10, state_counts=(64, 32)
    )


class TestContext:
    def test_checkpoints_cover_phases(self, tiny_context):
        assert tiny_context.checkpoints == tuple(6 * k for k in range(1, 9))

    def test_partitions_for_each_state_count(self, tiny_context):
        for state_cnt in (64, 32):
            parts = tiny_context.partition_for(state_cnt)
            assert sum(2 ** len(p) for p in parts) <= state_cnt

    def test_reference_partition_is_largest(self, tiny_context):
        assert tiny_context.fixed.partition == tiny_context.partition_for(64)

    def test_context_cached(self):
        first = get_context(per_phase=6, scale=0.02, seed=5, idx_cnt=10,
                            state_counts=(64, 32))
        second = get_context(per_phase=6, scale=0.02, seed=5, idx_cnt=10,
                             state_counts=(64, 32))
        assert first is second

    def test_opt_prefix_values_at_checkpoints(self, tiny_context):
        for n in tiny_context.checkpoints:
            assert tiny_context.opt_schedule.optimum_at(n) > 0

    def test_ratio_series(self, tiny_context):
        n = len(tiny_context.statements)
        fake_series = [float(i + 1) * 1000.0 for i in range(n)]
        ratios = tiny_context.ratio_series(fake_series)
        assert set(ratios) == set(tiny_context.checkpoints)


class TestFigureResult:
    def test_format_table(self):
        result = FigureResult("Figure X", "demo")
        result.add_curve("A", {10: 0.5, 20: 0.75})
        result.add_curve("B", {10: 0.4, 20: 0.6})
        text = result.format_table()
        assert "Figure X" in text
        assert "q=10" in text and "q=20" in text
        assert "0.750" in text

    def test_final_ratio(self):
        result = FigureResult("f", "d")
        result.add_curve("A", {10: 0.5, 20: 0.9})
        assert result.final_ratio("A") == 0.9


class TestFigureDrivers:
    def test_figure8_curves_present(self, tiny_context):
        result = figure8_baseline(tiny_context)
        assert {"WFIT-64", "WFIT-32", "WFIT-IND", "BC"} <= set(result.curves)
        for series in result.curves.values():
            assert set(series) == set(tiny_context.checkpoints)
            assert all(v > 0 for v in series.values())

    def test_figure11_lag_labels(self, tiny_context):
        result = figure11_lag(tiny_context, lags=(1, 6))
        assert "WFIT" in result.curves
        assert "LAG 6" in result.curves

    def test_figure11_engine_accounting_is_bit_identical(self, tiny_context):
        """The service engine's realized-totWork accounting reproduces the
        offline Figure 11 experiment exactly — same curves, bit for bit
        (the ISSUE 10 cross-check: both series accumulate one
        ``cost + transition`` sum per statement, so there is no float
        grouping to diverge)."""
        offline = figure11_lag(tiny_context, lags=(1, 6))
        engine = figure11_lag_engine(tiny_context, lags=(1, 6))
        assert set(engine.curves) == set(offline.curves)
        for label, series in offline.curves.items():
            assert engine.curves[label] == series, f"{label} diverged"
