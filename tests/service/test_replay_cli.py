"""Smoke tests for the ``python -m repro.service`` replay CLI."""

from __future__ import annotations

import json

import pytest

from repro.service.replay import main

TRACE_FLAGS = [
    "--scale", "0.02", "--per-phase", "2", "--seed", "7",
    "--clients", "2", "--limit", "10",
]


class TestReplay:
    def test_replay_emits_metrics(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        code = main(["replay", *TRACE_FLAGS, "--metrics-out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["command"] == "replay"
        assert report["statements"] == 10
        assert report["metrics"]["statements_processed"] == 10
        assert set(report["metrics"]["sessions"]) == {"client-0", "client-1"}

    def test_checkpoint_every_requires_durable_dir(self, capsys):
        code = main(["replay", *TRACE_FLAGS, "--checkpoint-every", "4"])
        assert code == 2

    def test_adopt_every_rejects_checkpoint_every(self, tmp_path):
        code = main([
            "replay", *TRACE_FLAGS, "--adopt-every", "2",
            "--durable-dir", str(tmp_path / "durable"),
            "--checkpoint-every", "4",
        ])
        assert code == 2

    def test_checkpoint_resume_verify(self, tmp_path):
        """A durable replay with no periodic checkpoints leaves only the
        initial snapshot: ``recover`` resumes from it by replaying all 10
        statements from the WAL, and ``--verify`` proves the resumed run
        step-identical to the uninterrupted one."""
        durable = tmp_path / "durable"
        replay_out = tmp_path / "replay.json"
        code = main([
            "replay", *TRACE_FLAGS,
            "--durable-dir", str(durable),
            "--metrics-out", str(replay_out),
        ])
        assert code == 0

        recover_out = tmp_path / "recover.json"
        code = main([
            "recover", "--dir", str(durable), "--verify",
            "--metrics-out", str(recover_out),
        ])
        assert code == 0
        report = json.loads(recover_out.read_text())
        assert report["recovered_at"] == 0
        assert report["statements_replayed"] == 10
        assert report["verify"]["verified"] is True
        assert report["verify"]["recommendation_mismatches"] == []
        # Uninterrupted and recovered runs finish with the same metric.
        replay_report = json.loads(replay_out.read_text())
        assert report["verify"]["total_work_recovered"] == pytest.approx(
            replay_report["metrics"]["total_work"], rel=1e-9
        )

    def test_report_carries_obs_snapshot(self, tmp_path):
        from repro.obs.registry import text_from_snapshot, validate_snapshot

        out = tmp_path / "metrics.json"
        assert main(["replay", *TRACE_FLAGS, "--metrics-out", str(out)]) == 0
        report = json.loads(out.read_text())
        snapshot = report["obs"]
        validate_snapshot(snapshot)
        names = set(snapshot["metrics"])
        assert {
            "repro_wfa_relax_seconds",
            "repro_whatif_calls_total",
            "repro_wfit_statements_total",
            "repro_engine_statements_total",
            "repro_span_seconds",
        } <= names
        text_from_snapshot(snapshot)  # renders as Prometheus text

    def test_trace_out_writes_chrome_trace(self, tmp_path):
        out = tmp_path / "metrics.json"
        trace = tmp_path / "trace.json"
        assert main([
            "replay", *TRACE_FLAGS,
            "--metrics-out", str(out), "--trace-out", str(trace),
        ]) == 0
        document = json.loads(trace.read_text())
        events = document["traceEvents"]
        assert events, "replay produced no spans"
        names = {event["name"] for event in events}
        assert {"engine.analyze", "wfit.analyze", "wfit.relax"} <= names
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0

    def test_resume_rejects_foreign_checkpoint(self, tmp_path, toy_stats):
        """``recover`` refuses (exit 2) a durable directory whose snapshot
        carries no trace parameters to rebuild the workload from."""
        from repro.db import StatsTransitionCosts
        from repro.optimizer import WhatIfOptimizer
        from repro.service import Durability, TuningEngine

        engine = TuningEngine(
            WhatIfOptimizer(toy_stats), StatsTransitionCosts(toy_stats),
            idx_cnt=6, state_cnt=32,
        )
        durability = Durability(tmp_path / "bare")
        durability.attach(engine)
        durability.checkpoint(full=True)  # no trace parameters
        durability.close()
        assert main(["recover", "--dir", str(tmp_path / "bare")]) == 2
