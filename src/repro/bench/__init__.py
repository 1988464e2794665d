"""Experiment harness: shared context and per-figure drivers (§6)."""

from .context import ExperimentContext, bench_parameters, get_context
from .figures import (
    FigureResult,
    figure8_baseline,
    figure9_feedback,
    figure10_feedback_independent,
    figure11_lag,
    figure12_auto,
    overhead_table,
)

__all__ = [
    "ExperimentContext",
    "FigureResult",
    "bench_parameters",
    "figure10_feedback_independent",
    "figure11_lag",
    "figure12_auto",
    "figure8_baseline",
    "figure9_feedback",
    "get_context",
    "overhead_table",
]
