"""Multi-client trace containers and engine/single-WFIT determinism."""

from __future__ import annotations

import pytest

from repro.core.wfit import WFIT
from repro.db import StatsTransitionCosts, build_catalog
from repro.optimizer import WhatIfOptimizer
from repro.service import TuningEngine
from repro.workload import MultiClientTrace, generate_workload, scaled_phases


@pytest.fixture(scope="module")
def small_workload():
    catalog, stats = build_catalog(scale=0.02)
    workload = generate_workload(catalog, stats, scaled_phases(3), seed=5)
    return stats, list(workload.statements)


class TestTraceConstruction:
    def test_split_round_robin_preserves_order(self, small_workload):
        _, statements = small_workload
        trace = MultiClientTrace.split(statements, ["a", "b", "c"])
        assert [statement for _, statement in trace] == statements
        assert trace.clients == ("a", "b", "c")
        assert [client for client, _ in trace][:6] == ["a", "b", "c"] * 2

    def test_split_random_is_seeded(self, small_workload):
        _, statements = small_workload
        first = MultiClientTrace.split(statements, ["a", "b"], "random", seed=3)
        second = MultiClientTrace.split(statements, ["a", "b"], "random", seed=3)
        assert first.entries == second.entries
        assert [statement for _, statement in first] == statements

    def test_round_robin_merge_preserves_client_order(self, small_workload):
        _, statements = small_workload
        streams = {"a": statements[:5], "b": statements[5:8]}
        trace = MultiClientTrace.round_robin(streams)
        assert len(trace) == 8
        assert [s for c, s in trace if c == "a"] == statements[:5]
        assert [s for c, s in trace if c == "b"] == statements[5:8]
        # Alternates while both streams have statements.
        assert [c for c, _ in trace][:6] == ["a", "b", "a", "b", "a", "b"]
        assert [c for c, _ in trace][6:] == ["a", "a"]


class TestEngineDeterminism:
    """Interleaving N clients through pump() ≡ one WFIT on the merged trace."""

    def test_pump_matches_single_wfit(self, small_workload):
        stats, statements = small_workload
        statements = statements[:16]
        options = dict(idx_cnt=8, state_cnt=64)

        trace = MultiClientTrace.split(statements, ["a", "b"])
        engine = TuningEngine(
            WhatIfOptimizer(stats), StatsTransitionCosts(stats),
            batch_size=3, **options,
        )
        engine_recs = []
        for client, statement in trace:
            engine.submit(client, statement)
            engine.pump(1)
            engine_recs.append(engine.tuner.recommend())

        single = WFIT(
            WhatIfOptimizer(stats), StatsTransitionCosts(stats), **options
        )
        single_recs = [
            single.analyze_statement(statement) for _, statement in trace
        ]
        assert engine_recs == single_recs
        assert len(engine.tuner.partition) == len(single.partition)
        for ours, theirs in zip(engine.tuner._plus.instances, single._plus.instances):
            assert ours.indices == theirs.indices
            assert ours.work_function() == theirs.work_function()

    def test_batched_pump_matches_stepwise(self, small_workload):
        stats, statements = small_workload
        statements = statements[:16]
        options = dict(idx_cnt=8, state_cnt=64)
        trace = MultiClientTrace.split(statements, ["a", "b", "c"])

        batched = TuningEngine(
            WhatIfOptimizer(stats), StatsTransitionCosts(stats),
            batch_size=5, **options,
        )
        batched.submit_many(trace)
        batched.pump()

        stepwise = TuningEngine(
            WhatIfOptimizer(stats), StatsTransitionCosts(stats),
            batch_size=1, **options,
        )
        for client, statement in trace:
            stepwise.submit(client, statement)
            stepwise.pump()

        assert batched.tuner.recommend() == stepwise.tuner.recommend()
        assert batched.total_work == pytest.approx(
            stepwise.total_work, abs=1e-9
        )
