"""Tests for the metrics registry: instruments, snapshots, exposition."""

from __future__ import annotations

import gc
import json
import math
import threading

import pytest

from repro import obs
from repro.obs.registry import (
    DEFAULT_TIME_BUCKETS,
    POW2_BUCKETS,
    Histogram,
    MetricsRegistry,
    diff_snapshots,
    parse_prometheus_text,
    text_from_snapshot,
    validate_snapshot,
)


@pytest.fixture()
def registry() -> MetricsRegistry:
    return MetricsRegistry()


class _Level:
    """A gauge sample source: gauges come from collectors."""

    def __init__(self, name: str, value: float) -> None:
        self.name = name
        self.value = value

    def collect(self):
        return [{"name": self.name, "type": "gauge", "value": self.value}]


class TestInstruments:
    def test_counter_accumulates(self, registry):
        counter = registry.counter("r_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_counter_rejects_negative(self, registry):
        with pytest.raises(ValueError):
            registry.counter("r_total").inc(-1)

    def test_get_or_create_returns_same_child(self, registry):
        a = registry.counter("r_total", labels={"k": "x"})
        b = registry.counter("r_total", labels={"k": "x"})
        c = registry.counter("r_total", labels={"k": "y"})
        assert a is b
        assert a is not c

    def test_label_order_is_irrelevant(self, registry):
        a = registry.counter("r_total", labels={"a": "1", "b": "2"})
        b = registry.counter("r_total", labels={"b": "2", "a": "1"})
        assert a is b

    def test_type_conflict_raises(self, registry):
        registry.counter("r_thing")
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("r_thing")

    def test_histogram_bucket_conflict_raises(self, registry):
        registry.histogram("r_seconds", buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="different buckets"):
            registry.histogram("r_seconds", buckets=(1.0, 3.0))

    def test_invalid_names_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.counter("9starts_with_digit")
        with pytest.raises(ValueError):
            registry.counter("has space")
        with pytest.raises(ValueError):
            registry.counter("ok_total", labels={"bad-label": "v"})

    def test_reset_zeroes_but_keeps_handles(self, registry):
        counter = registry.counter("r_total")
        hist = registry.histogram("r_seconds", buckets=(1.0,))
        counter.inc(5)
        hist.observe(0.5)
        registry.reset()
        assert counter.value == 0.0
        assert hist.count == 0
        counter.inc()  # the cached handle still feeds the registry
        assert registry.snapshot()["metrics"]["r_total"]["samples"][0]["value"] == 1.0


class TestHistogramBuckets:
    def test_exact_boundary_lands_in_bounding_bucket(self):
        hist = Histogram(buckets=(1.0, 2.0, 4.0))
        hist.observe(2.0)  # le="2.0" bucket, Prometheus v <= bound
        buckets = hist.cumulative_buckets()
        assert buckets["1"] == 0
        assert buckets["2"] == 1
        assert buckets["4"] == 1
        assert buckets["+Inf"] == 1

    def test_overflow_counts_only_in_inf(self):
        hist = Histogram(buckets=(1.0,))
        hist.observe(100.0)
        buckets = hist.cumulative_buckets()
        assert buckets["1"] == 0
        assert buckets["+Inf"] == 1
        assert hist.count == 1
        assert hist.sum == 100.0

    def test_cumulative_counts_are_monotone(self):
        hist = Histogram(buckets=POW2_BUCKETS)
        for value in (0.5, 1, 2, 3, 9, 1 << 19, 1 << 25):
            hist.observe(value)
        counts = list(hist.cumulative_buckets().values())
        assert counts == sorted(counts)
        assert counts[-1] == 7

    def test_rejects_unsorted_and_empty(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(buckets=())
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, 1.0))

    def test_trailing_inf_bound_is_folded(self):
        hist = Histogram(buckets=(1.0, math.inf))
        hist.observe(5.0)
        assert list(hist.cumulative_buckets()) == ["1", "+Inf"]

    def test_default_time_buckets_cover_micro_to_seconds(self):
        hist = Histogram(buckets=DEFAULT_TIME_BUCKETS)
        hist.observe(2e-5)
        hist.observe(0.3)
        buckets = hist.cumulative_buckets()
        assert buckets["+Inf"] == 2
        assert buckets["2.5e-05"] >= 1


class TestThreadSafety:
    def test_concurrent_increments_are_exact(self, registry):
        counter = registry.counter("r_total")
        hist = registry.histogram("r_seconds", buckets=(0.5,))
        per_thread, threads = 5_000, 8
        barrier = threading.Barrier(threads)

        def worker():
            barrier.wait()
            for _ in range(per_thread):
                counter.inc()
                hist.observe(0.25)

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert counter.value == per_thread * threads
        assert hist.count == per_thread * threads
        assert hist.cumulative_buckets()["+Inf"] == per_thread * threads

    def test_concurrent_get_or_create_yields_one_child(self, registry):
        results = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            results.append(registry.counter("r_total", labels={"k": "x"}))

        pool = [threading.Thread(target=worker) for _ in range(8)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert len({id(c) for c in results}) == 1

    def test_snapshot_under_concurrent_writes_is_valid(self, registry):
        counter = registry.counter("r_total")
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                counter.inc()

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(50):
                validate_snapshot(registry.snapshot())
        finally:
            stop.set()
            thread.join()


class TestSnapshot:
    def test_snapshot_schema_round_trips_json(self, registry):
        registry.counter("r_total", help="c").inc(3)
        depth = _Level("r_depth", -2)
        registry.register_collector(depth.collect)
        registry.histogram("r_seconds", buckets=(1.0,)).observe(0.5)
        document = json.loads(json.dumps(registry.snapshot(), sort_keys=True))
        validate_snapshot(document)
        assert document["metrics"]["r_total"]["samples"][0]["value"] == 3
        hist = document["metrics"]["r_seconds"]["samples"][0]
        assert hist["count"] == 1 and hist["buckets"]["+Inf"] == 1

    def test_validate_rejects_garbage(self):
        with pytest.raises(ValueError):
            validate_snapshot({"version": 99, "metrics": {}})
        with pytest.raises(ValueError):
            validate_snapshot({"version": 1})
        with pytest.raises(ValueError):
            validate_snapshot({
                "version": 1,
                "metrics": {"x": {"type": "sparkline", "samples": []}},
            })

    def test_validate_rejects_non_cumulative_histogram(self):
        with pytest.raises(ValueError, match="cumulative"):
            validate_snapshot({
                "version": 1,
                "metrics": {"h": {"type": "histogram", "help": "", "samples": [
                    {"labels": {}, "count": 2, "sum": 1.0,
                     "buckets": {"1": 2, "2": 1, "+Inf": 2}},
                ]}},
            })

    def test_diff_subtracts_counters_and_histograms(self, registry):
        counter = registry.counter("r_total")
        depth = _Level("r_depth", 10)
        registry.register_collector(depth.collect)
        hist = registry.histogram("r_seconds", buckets=(1.0,))
        counter.inc(2)
        hist.observe(0.5)
        before = registry.snapshot()
        counter.inc(3)
        depth.value = 4
        hist.observe(0.5)
        hist.observe(9.0)
        delta = diff_snapshots(before, registry.snapshot())
        validate_snapshot(delta)
        metrics = delta["metrics"]
        assert metrics["r_total"]["samples"][0]["value"] == 3
        assert metrics["r_depth"]["samples"][0]["value"] == 4  # level, not flow
        hist_sample = metrics["r_seconds"]["samples"][0]
        assert hist_sample["count"] == 2
        assert hist_sample["buckets"]["1"] == 1
        assert hist_sample["buckets"]["+Inf"] == 2

    def test_diff_counts_new_series_from_zero(self, registry):
        before = registry.snapshot()
        registry.counter("r_total").inc(7)
        delta = diff_snapshots(before, registry.snapshot())
        assert delta["metrics"]["r_total"]["samples"][0]["value"] == 7


class TestCollectors:
    class _Source:
        def __init__(self, value: float) -> None:
            self.value = value

        def collect(self):
            return [{
                "name": "r_collected_total",
                "type": "counter",
                "help": "from a collector",
                "value": self.value,
            }]

    def test_collector_samples_appear_and_sum(self, registry):
        a, b = self._Source(3), self._Source(4)
        registry.register_collector(a.collect)
        registry.register_collector(b.collect)
        sample = registry.snapshot()["metrics"]["r_collected_total"]["samples"][0]
        assert sample["value"] == 7

    def test_dead_collector_is_pruned(self, registry):
        source = self._Source(5)
        registry.register_collector(source.collect)
        assert "r_collected_total" in registry.snapshot()["metrics"]
        del source
        gc.collect()
        assert "r_collected_total" not in registry.snapshot()["metrics"]

    def test_collector_gauge_reports_the_current_level(self, registry):
        depth = _Level("r_depth", 10)
        registry.register_collector(depth.collect)
        depth.value = 3
        metric = registry.snapshot()["metrics"]["r_depth"]
        assert metric["type"] == "gauge"
        assert metric["samples"] == [{"labels": {}, "value": 3.0}]
        depth.value = 8
        assert registry.snapshot()["metrics"]["r_depth"]["samples"][0]["value"] == 8.0

    def test_collector_name_collision_raises(self, registry):
        registry.counter("r_collected_total")
        source = self._Source(1)
        registry.register_collector(source.collect)
        with pytest.raises(ValueError, match="collides"):
            registry.snapshot()


class TestExposition:
    def test_text_parses_and_preserves_values(self, registry):
        registry.counter("r_total", help="a counter", labels={"k": "x"}).inc(3)
        registry.histogram("r_seconds", help="a histogram",
                           buckets=(0.1, 1.0)).observe(0.05)
        text = registry.expose_text()
        families = parse_prometheus_text(text)
        assert families["r_total"]["type"] == "counter"
        samples = {
            (name, tuple(sorted(labels.items()))): value
            for name, labels, value in families["r_total"]["samples"]
        }
        assert samples[("r_total", (("k", "x"),))] == 3
        hist_samples = families["r_seconds"]["samples"]
        assert any(n == "r_seconds_count" and v == 1 for n, _, v in hist_samples)

    def test_label_escaping_round_trips(self, registry):
        nasty = 'quote " backslash \\ newline \n end'
        registry.counter("r_total", labels={"k": nasty}).inc()
        families = parse_prometheus_text(registry.expose_text())
        (_, labels, value), = families["r_total"]["samples"]
        assert labels["k"] == nasty and value == 1

    def test_label_values_with_separators_round_trip(self, registry):
        """Commas, braces and a literal backslash-n in label values parse
        back as rendered (client ids are free-form strings)."""
        values = ["app,1", "a}b", "{x}", "lit\\n", "\\\\n", "a=\"b\",c"]
        for value in values:
            registry.counter("r_total", labels={"client": value}).inc()
        families = parse_prometheus_text(registry.expose_text())
        parsed = [labels["client"] for _, labels, _ in families["r_total"]["samples"]]
        assert sorted(parsed) == sorted(values)

    def test_sorted_key_snapshot_renders_ordered_buckets(self, registry):
        registry.histogram("r_size", buckets=POW2_BUCKETS).observe(3)
        # Simulate a JSON round-trip with lexicographic keys ("128" < "2").
        document = json.loads(json.dumps(registry.snapshot(), sort_keys=True))
        validate_snapshot(document)
        parse_prometheus_text(text_from_snapshot(document))

    def test_parser_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("just some words\n")
        with pytest.raises(ValueError):
            parse_prometheus_text("# TYPE x sparkline\n")
        with pytest.raises(ValueError):
            # A sample with no TYPE declaration.
            parse_prometheus_text("orphan_total 3\n")

    @pytest.mark.parametrize("labels", [
        'a="1" b="2"',    # missing comma
        'a=1',            # unquoted value
        'a="1",,b="2"',   # empty pair
        '="1"',           # missing name
        'a="1",b',        # dangling name
    ])
    def test_parser_rejects_malformed_label_lists(self, labels):
        text = "# TYPE r_total counter\nr_total{" + labels + "} 1\n"
        with pytest.raises(ValueError, match="malformed labels"):
            parse_prometheus_text(text)


class TestDefaultRegistryContract:
    def test_enable_disable_round_trip(self):
        obs.enable()
        assert obs.enabled()
        obs.disable()
        assert not obs.enabled()
        obs.enable()
        assert obs.enabled()

    def test_default_registry_is_a_singleton(self):
        assert obs.default_registry() is obs.default_registry()
