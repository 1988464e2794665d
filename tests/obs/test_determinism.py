"""Telemetry must never perturb tuning results.

Runs the same workload through WFIT with obs enabled (plus mid-run
snapshot/export churn) and disabled, and requires bit-identical
recommendations and exported tuner state. This is the enforcement test
for the contract documented in ``repro/obs/__init__.py``.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.core.wfit import WFIT
from repro.db import StatsTransitionCosts
from repro.optimizer import WhatIfOptimizer
from repro.query import select

SALES = "shop.sales"
CUSTOMERS = "shop.customers"


def _workload(stats, count=24):
    """A deterministic mixed workload touching two tables."""
    shapes = (
        (SALES, "amount", 0.02, 0.0),
        (SALES, "sale_date", 0.05, 0.1),
        (CUSTOMERS, "lifetime_value", 0.03, 0.2),
        (SALES, "amount", 0.01, 0.5),
    )
    statements = []
    for i in range(count):
        table, column, fraction, offset = shapes[i % len(shapes)]
        col = stats.column_stats(table, column)
        lo = col.min_value + col.domain_width * offset
        hi = lo + col.domain_width * fraction
        statements.append(select(table).where_between(column, lo, hi).build())
    return statements


def _run(stats, statements, *, churn: bool):
    """Run a fresh tuner over ``statements``; return (recs, exported state).

    With ``churn`` the run also takes registry snapshots, renders the
    Prometheus text and exports traces mid-stream — the observability
    read path must be side-effect-free too.
    """
    optimizer = WhatIfOptimizer(stats)
    tuner = WFIT(
        optimizer, StatsTransitionCosts(stats), idx_cnt=6, state_cnt=64
    )
    recommendations = []
    for i, statement in enumerate(statements):
        recommendations.append(sorted(map(str, tuner.analyze_statement(statement))))
        if churn and i % 5 == 0:
            registry = obs.default_registry()
            registry.expose_text()
            obs.validate_snapshot(registry.snapshot())
            obs.default_tracer().export_chrome()
    state = tuner.export_state()
    return recommendations, json.dumps(state, sort_keys=True, default=str)


def test_results_identical_with_obs_on_off_and_churn(toy_stats):
    statements = _workload(toy_stats)
    was_enabled = obs.enabled()  # honour REPRO_OBS=0 runs of the suite
    try:
        obs.enable()
        on_recs, on_state = _run(toy_stats, statements, churn=True)
        obs.disable()
        assert obs.span("noop") is not None  # no-op path, not an error path
        off_recs, off_state = _run(toy_stats, statements, churn=False)
    finally:
        obs.enable() if was_enabled else obs.disable()
    assert on_recs == off_recs
    assert on_state == off_state


def test_disabled_run_records_nothing_new(toy_stats):
    statements = _workload(toy_stats, count=8)
    obs.disable()
    before = obs.default_registry().snapshot()
    _run(toy_stats, statements, churn=False)
    delta = obs.diff_snapshots(before, obs.default_registry().snapshot())
    for name, entry in delta["metrics"].items():
        if entry["type"] == "gauge":
            continue  # gauges report levels, not flows
        for sample in entry["samples"]:
            moved = sample.get("value", sample.get("count", 0))
            assert not moved, f"{name} advanced while obs was disabled"


def test_enabled_run_populates_every_layer(toy_stats):
    statements = _workload(toy_stats, count=8)
    obs.enable()
    before = obs.default_registry().snapshot()
    # Inline run: the what-if counters come from a weakref collector that
    # dies with the optimizer, so snapshot while it is still alive.
    optimizer = WhatIfOptimizer(toy_stats)
    tuner = WFIT(
        optimizer, StatsTransitionCosts(toy_stats), idx_cnt=6, state_cnt=64
    )
    for statement in statements:
        tuner.analyze_statement(statement)
    after = obs.default_registry().snapshot()
    delta = obs.diff_snapshots(before, after)
    metrics = delta["metrics"]

    wfit_total = sum(
        s["value"] for s in metrics["repro_wfit_statements_total"]["samples"]
    )
    assert wfit_total == len(statements)

    relax = metrics["repro_wfa_relax_seconds"]["samples"]
    assert sum(s["count"] for s in relax) > 0
    for sample in relax:
        assert set(sample["labels"]) == {"backend", "states"}

    span_names = {
        s["labels"]["span"] for s in metrics["repro_span_seconds"]["samples"]
        if s["count"]
    }
    assert {"wfit.analyze", "wfit.choose_candidates",
            "wfit.prepare", "wfit.relax"} <= span_names

    whatif = sum(
        s["value"] for s in metrics["repro_whatif_calls_total"]["samples"]
    )
    assert whatif > 0
