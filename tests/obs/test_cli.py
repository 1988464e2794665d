"""Tests for the ``python -m repro.obs`` CLI (show / diff / check)."""

from __future__ import annotations

import json

import pytest

from repro.obs.__main__ import main
from repro.obs.registry import MetricsRegistry


def _depth():
    return [{"name": "r_depth", "type": "gauge", "value": 4}]


def _make_snapshot(counter: float = 3, observed=(0.5, 2.0)) -> dict:
    registry = MetricsRegistry()
    registry.counter("r_total", help="a counter", labels={"k": "x"}).inc(counter)
    registry.register_collector(_depth)
    hist = registry.histogram("r_seconds", buckets=(1.0,))
    for value in observed:
        hist.observe(value)
    return registry.snapshot()


@pytest.fixture()
def snapshot_path(tmp_path):
    path = tmp_path / "snap.json"
    path.write_text(json.dumps(_make_snapshot(), sort_keys=True))
    return path


class TestShow:
    def test_table_lists_every_sample(self, snapshot_path, capsys):
        assert main(["show", str(snapshot_path)]) == 0
        out = capsys.readouterr().out
        assert "r_total{k=x}  3" in out
        assert "r_depth  4" in out
        assert "r_seconds  count=2" in out

    def test_prom_format_is_parseable(self, snapshot_path, capsys):
        from repro.obs.registry import parse_prometheus_text

        assert main(["show", str(snapshot_path), "--format", "prom"]) == 0
        families = parse_prometheus_text(capsys.readouterr().out)
        assert set(families) == {"r_total", "r_depth", "r_seconds"}

    def test_json_format_round_trips(self, snapshot_path, capsys):
        assert main(["show", str(snapshot_path), "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == 1

    def test_unwraps_replay_report(self, tmp_path, capsys):
        report = {
            "metrics": {"statements_ingested": 10},  # engine dict, not a snapshot
            "obs": _make_snapshot(counter=9),
        }
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report, sort_keys=True))
        assert main(["show", str(path)]) == 0
        assert "r_total{k=x}  9" in capsys.readouterr().out


class TestDiff:
    def test_diff_subtracts(self, tmp_path, capsys):
        before = tmp_path / "before.json"
        after = tmp_path / "after.json"
        before.write_text(json.dumps(_make_snapshot(counter=3, observed=(0.5,))))
        after.write_text(json.dumps(_make_snapshot(counter=10, observed=(0.5, 2.0))))
        assert main(["diff", str(before), str(after)]) == 0
        out = capsys.readouterr().out
        assert "r_total{k=x}  7" in out
        assert "r_seconds  count=1" in out


class TestCheck:
    def test_ok_on_valid_snapshot(self, snapshot_path, capsys):
        assert main(["check", str(snapshot_path)]) == 0
        assert capsys.readouterr().out.startswith("OK ")

    def test_ok_on_label_values_with_separators(self, tmp_path, capsys):
        registry = MetricsRegistry()
        for client in ("app,1", "a}b"):
            registry.counter("r_total", labels={"client": client}).inc()
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(registry.snapshot(), sort_keys=True))
        assert main(["check", str(path)]) == 0
        assert capsys.readouterr().out.startswith("OK ")

    def test_fails_on_invalid_snapshot(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 77, "metrics": {}}))
        assert main(["check", str(path)]) == 1
        assert "FAIL snapshot" in capsys.readouterr().err

    def test_expect_metric_enforced(self, snapshot_path, capsys):
        assert main([
            "check", str(snapshot_path), "--expect-metric", "r_total",
        ]) == 0
        assert main([
            "check", str(snapshot_path), "--expect-metric", "r_missing_total",
        ]) == 1
        assert "r_missing_total" in capsys.readouterr().err

    def test_trace_validation(self, snapshot_path, tmp_path, capsys):
        good = tmp_path / "trace.json"
        good.write_text(json.dumps({"traceEvents": [
            {"name": "s", "ph": "X", "ts": 1.0, "dur": 2.0, "pid": 1, "tid": 5},
        ]}))
        assert main(["check", str(snapshot_path), "--trace", str(good)]) == 0

        bad = tmp_path / "bad-trace.json"
        bad.write_text(json.dumps({"traceEvents": [
            {"name": "s", "ph": "X", "ts": 1.0, "pid": 1, "tid": 5},  # no dur
        ]}))
        assert main(["check", str(snapshot_path), "--trace", str(bad)]) == 1
        assert "dur" in capsys.readouterr().err
