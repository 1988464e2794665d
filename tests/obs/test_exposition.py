"""Golden-file test for the Prometheus text exposition format.

The golden at ``tests/golden/prometheus_exposition.txt`` pins the exact
rendering — HELP/TYPE lines, label ordering, cumulative ``le`` buckets,
value formatting — so accidental format drift (which would break real
Prometheus scrapers) fails loudly. Regenerate with::

    PYTHONPATH=src python tests/obs/test_exposition.py --regen
"""

from __future__ import annotations

import pathlib
import sys

from repro.obs.registry import (
    MetricsRegistry,
    parse_prometheus_text,
    text_from_snapshot,
    validate_snapshot,
)

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "golden" / "prometheus_exposition.txt"


def _queue_depth():
    """The fixture's gauge family: gauges come from collectors."""
    return [{
        "name": "repro_demo_queue_depth",
        "type": "gauge",
        "help": "Pending statements.",
        "value": 5,
    }]


def build_fixture_registry() -> MetricsRegistry:
    """A small registry with every metric type and formatting edge."""
    registry = MetricsRegistry()
    registry.counter(
        "repro_demo_statements_total",
        help="Statements fed to the demo tuner.",
    ).inc(42)
    registry.counter(
        "repro_demo_cache_events_total",
        help="Cache events by kind.",
        labels={"kind": "hit"},
    ).inc(17)
    registry.counter(
        "repro_demo_cache_events_total",
        labels={"kind": "miss"},
    ).inc(3)
    registry.register_collector(_queue_depth)
    hist = registry.histogram(
        "repro_demo_relax_seconds",
        help="Relax wall time.",
        buckets=(0.001, 0.01, 0.1, 1.0),
        labels={"backend": "numpy"},
    )
    for value in (0.0005, 0.004, 0.004, 0.05, 2.0):
        hist.observe(value)
    registry.counter(
        "repro_demo_escaped_total",
        help='Help with a "quote" and a \\ backslash.',
        labels={"path": 'a"b\\c\nd'},
    ).inc(1)
    return registry


def test_exposition_matches_golden():
    text = build_fixture_registry().expose_text()
    assert GOLDEN.exists(), f"golden missing: {GOLDEN}"
    assert text == GOLDEN.read_text()


def test_golden_is_self_consistent():
    """The committed golden must itself parse as valid Prometheus text."""
    families = parse_prometheus_text(GOLDEN.read_text())
    assert families["repro_demo_statements_total"]["type"] == "counter"
    assert families["repro_demo_relax_seconds"]["type"] == "histogram"
    bucket_values = [
        value
        for name, labels, value in families["repro_demo_relax_seconds"]["samples"]
        if name == "repro_demo_relax_seconds_bucket"
    ]
    assert bucket_values == sorted(bucket_values)
    assert bucket_values[-1] == 5  # +Inf == count

    samples = {
        (name, labels.get("kind"))
        for name, labels, _ in families["repro_demo_cache_events_total"]["samples"]
    }
    assert samples == {
        ("repro_demo_cache_events_total", "hit"),
        ("repro_demo_cache_events_total", "miss"),
    }


def test_snapshot_render_matches_live_render():
    """``text_from_snapshot(snapshot())`` and ``expose_text()`` agree."""
    registry = build_fixture_registry()
    snapshot = registry.snapshot()
    validate_snapshot(snapshot)
    assert text_from_snapshot(snapshot) == registry.expose_text()


if __name__ == "__main__":
    if "--regen" in sys.argv:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(build_fixture_registry().expose_text())
        print(f"wrote {GOLDEN}")
    else:
        print(__doc__)
