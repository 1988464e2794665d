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

    def test_infeasible_state_cnt_is_a_one_line_error(self, capsys):
        """Used to die mid-replay with a traceback from choosePartition."""
        code = main([
            "replay", *TRACE_FLAGS, "--idx-cnt", "40", "--state-cnt", "32",
        ])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("invalid engine options: stateCnt=32")
        assert "\n" not in err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--clients", "0"),
            ("--checkpoint-every", "-3"),
            ("--checkpoint-every", "0"),
            ("--adopt-every", "0"),
        ],
    )
    def test_out_of_range_counts_are_one_line_errors(
        self, tmp_path, capsys, flag, value
    ):
        """Used to die with a traceback (``--clients 0``) or run silently
        with a different count (clamped or ignored)."""
        durable = tmp_path / "durable"
        code = main([
            "replay", *TRACE_FLAGS, flag, value, "--durable-dir", str(durable),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"{flag} must be at least 1, got {value}\n"
        assert not durable.exists()

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

    def test_verify_compares_the_final_recommendation(self, tmp_path):
        """A vote logged after the last statement changes the recovered
        recommendation but steps no statement, and the last checkpoint
        covers every statement: verify must still see the divergence."""
        from repro.db import StatsTransitionCosts, build_catalog
        from repro.optimizer import WhatIfOptimizer
        from repro.service import Durability, TuningEngine

        durable = tmp_path / "durable"
        assert main([
            "replay", "--scale", "0.02", "--per-phase", "2", "--clients", "2",
            "--limit", "12", "--checkpoint-every", "4",
            "--durable-dir", str(durable),
            "--metrics-out", str(tmp_path / "replay.json"),
        ]) == 0
        _, stats = build_catalog(scale=0.02)
        engine, _ = TuningEngine.recover(
            durable, WhatIfOptimizer(stats), StatsTransitionCosts(stats)
        )
        assert engine.statements_processed == 12
        endorsed = sorted(
            engine.tuner.candidates - engine.recommendation().recommended
        )[0]
        durability = Durability(durable)
        durability.attach(engine)
        engine.vote("dba", frozenset({endorsed}), frozenset())
        durability.close()

        out = tmp_path / "recover.json"
        code = main([
            "recover", "--dir", str(durable), "--verify",
            "--metrics-out", str(out),
        ])
        verify = json.loads(out.read_text())["verify"]
        assert endorsed.name in verify["final_recommendation_recovered"]
        assert endorsed.name not in verify["final_recommendation_reference"]
        assert verify["recommendation_mismatches"] == []
        assert verify["total_work_delta"] == 0.0
        assert verify["verified"] is False
        assert code == 1

    def test_a_record_that_does_not_decode_exits_2(self, tmp_path, capsys):
        """A CRC-valid ``vote`` record without its ``plus`` field is
        unusable durable state (exit 2), not a ``KeyError`` traceback."""
        from repro.service.wal import WriteAheadLog, read_wal

        durable = tmp_path / "durable"
        assert main([
            "replay", *TRACE_FLAGS, "--durable-dir", str(durable),
            "--metrics-out", str(tmp_path / "replay.json"),
        ]) == 0
        path = durable / "wal.log"
        wal = WriteAheadLog(path, next_seq=read_wal(path).records[-1].seq + 1)
        wal.append("vote", {"client_id": "dba", "position": 10, "minus": []})
        wal.close()
        capsys.readouterr()
        assert main(["recover", "--dir", str(durable)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("recover failed: WAL record seq ")
        assert "missing field 'plus'" in err

    def test_a_vote_for_and_against_one_index_exits_2(self, tmp_path, capsys):
        """A CRC-valid ``vote`` record that names one index in both ``plus``
        and ``minus`` contradicts any engine: unusable durable state
        (exit 2), not a ``ValueError`` traceback."""
        from repro.service.wal import WriteAheadLog, read_wal

        durable = tmp_path / "durable"
        assert main([
            "replay", *TRACE_FLAGS, "--durable-dir", str(durable),
            "--metrics-out", str(tmp_path / "replay.json"),
        ]) == 0
        path = durable / "wal.log"
        index = {"table": "tpch.lineitem", "columns": ["l_shipdate"]}
        wal = WriteAheadLog(path, next_seq=read_wal(path).records[-1].seq + 1)
        wal.append("vote", {
            "client_id": "dba", "position": 10, "plus": [index], "minus": [index],
        })
        wal.close()
        capsys.readouterr()
        assert main(["recover", "--dir", str(durable)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("recover failed: WAL record seq ")
        assert "F+ and F- must be disjoint" in err

    @pytest.mark.parametrize("chunking", ["--checkpoint-every", "--adopt-every"])
    def test_chunked_priority_run_verifies(self, tmp_path, chunking):
        """Under mixed priority classes each chunk drains ``interactive``
        first, so the chunk boundaries decide the analysis order. The
        verify reference must replay the run's own chunks; submitting the
        whole prefix at once reported a false divergence."""
        durable = tmp_path / "durable"
        replay_out = tmp_path / "replay.json"
        code = main([
            "replay", "--scale", "0.02", "--per-phase", "6", "--seed", "7",
            "--clients", "2", "--limit", "48", chunking, "8",
            "--priority-map", "client-0=interactive,client-1=background",
            "--durable-dir", str(durable), "--metrics-out", str(replay_out),
        ])
        assert code == 0

        recover_out = tmp_path / "recover.json"
        code = main([
            "recover", "--dir", str(durable), "--verify",
            "--metrics-out", str(recover_out),
        ])
        report = json.loads(recover_out.read_text())
        live = json.loads(replay_out.read_text())["metrics"]["total_work"]
        assert report["verify"]["total_work_recovered"] == live
        assert report["verify"]["total_work_reference"] == live
        assert code == 0

    def test_wal_only_recovery_uses_the_run_engine_options(self, tmp_path):
        """With no restorable snapshot, ``recover`` replays the whole WAL
        into a fresh engine, which must run with the WFIT options of the
        original run (stashed in the snapshot), not the defaults."""
        durable = tmp_path / "durable"
        code = main([
            "replay", "--scale", "0.02", "--per-phase", "2", "--seed", "7",
            "--clients", "2", "--limit", "16", "--idx-cnt", "6",
            "--state-cnt", "16", "--durable-dir", str(durable),
            "--metrics-out", str(tmp_path / "replay.json"),
        ])
        assert code == 0
        # Still parseable (the trace parameters load), but unrestorable.
        snapshot = durable / "snapshot-000001.json"
        document = json.loads(snapshot.read_text())
        document["version"] = 999
        snapshot.write_text(json.dumps(document))

        out = tmp_path / "recover.json"
        code = main([
            "recover", "--dir", str(durable), "--verify",
            "--metrics-out", str(out),
        ])
        report = json.loads(out.read_text())
        assert report["recovery"]["snapshot_id"] is None
        assert report["statements_replayed"] == 16
        assert report["verify"]["recommendation_mismatches"] == []
        assert code == 0

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
        durability.checkpoint()  # no trace parameters
        durability.close()
        assert main(["recover", "--dir", str(tmp_path / "bare")]) == 2
