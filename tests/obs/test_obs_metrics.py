"""Metrics registry: instruments, collectors, rendering."""

import threading

import pytest

from repro.obs.metrics import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
    render_prometheus,
)


class TestCounter:
    def test_counts_up(self):
        counter = Counter("c_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative(self):
        counter = Counter("c_total", "")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_labelled_children_are_independent(self):
        counter = Counter("c_total", "", ("model",))
        counter.labels(model="a").inc()
        counter.labels(model="a").inc()
        counter.labels(model="b").inc()
        assert counter.labels(model="a").value == 2
        assert counter.labels(model="b").value == 1

    def test_labelless_use_of_labelled_family_rejected(self):
        counter = Counter("c_total", "", ("model",))
        with pytest.raises(ValueError, match="use .labels"):
            counter.inc()

    def test_wrong_label_names_rejected(self):
        counter = Counter("c_total", "", ("model",))
        with pytest.raises(ValueError, match="do not match"):
            counter.labels(nope="x")

    def test_thread_safety(self):
        counter = Counter("c_total", "")

        def spin():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000


class TestGauge:
    def test_set_and_inc(self):
        gauge = Gauge("g", "")
        gauge.set(5)
        gauge.inc(-2)
        assert gauge.value == 3


class TestHistogram:
    def test_empty_summary(self):
        hist = Histogram("h_seconds", "")
        assert hist.summary() == {
            "count": 0, "sum": 0.0, "mean": None, "max": None,
            "p50": None, "p95": None, "p99": None,
        }
        assert hist.percentile(50) is None

    def test_exact_count_sum_mean_max(self):
        hist = Histogram("h_seconds", "")
        for value in (0.001, 0.002, 0.004):
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 3
        assert summary["sum"] == pytest.approx(0.007)
        assert summary["mean"] == pytest.approx(0.007 / 3)
        assert summary["max"] == pytest.approx(0.004)

    def test_percentiles_ordered_and_within_bucket(self):
        hist = Histogram("h_seconds", "", buckets=LATENCY_BUCKETS)
        for _ in range(90):
            hist.observe(0.0008)  # (0.0005, 0.001] bucket
        for _ in range(10):
            hist.observe(0.08)  # (0.05, 0.1] bucket
        p50, p95, p99 = (hist.percentile(q) for q in (50, 95, 99))
        assert 0.0005 <= p50 <= 0.001
        assert 0.05 <= p95 <= 0.1
        assert p50 <= p95 <= p99 <= 0.1

    def test_above_top_bucket_clamps_to_observed_max(self):
        # The +inf bucket interpolates toward the observed max, never
        # toward infinity: one 5 s outlier keeps p99 finite and <= 5 s.
        hist = Histogram("h_seconds", "", buckets=(0.1, 1.0))
        hist.observe(5.0)
        assert 1.0 <= hist.percentile(99) <= 5.0
        assert hist.percentile(100) == pytest.approx(5.0)

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            Histogram("h", "", buckets=(1.0, 0.1))


class TestRegistry:
    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("a_total", "x")
        assert registry.counter("a_total", "y") is first

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("a_total")

    def test_label_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a_total", labelnames=("model",))
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("a_total", labelnames=("other",))

    def test_as_dict_shape(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(2)
        registry.gauge("g").set(7)
        registry.histogram("h_seconds").observe(0.01)
        snapshot = registry.as_dict()
        assert snapshot["counters"]["c_total"] == 2
        assert snapshot["gauges"]["g"] == 7
        assert snapshot["histograms"]["h_seconds"]["count"] == 1
        assert snapshot["collected"] == {}

    def test_collector_samples_appear(self):
        registry = MetricsRegistry()
        registry.register_collector(
            "src", lambda: [("x_total", {"model": "m"}, 3)]
        )
        snapshot = registry.as_dict()
        assert snapshot["collected"]["src"] == {'x_total{model="m"}': 3.0}

    def test_collector_replace_semantics(self):
        registry = MetricsRegistry()
        registry.register_collector("src", lambda: [("x_total", {}, 1)])
        registry.register_collector("src", lambda: [("x_total", {}, 2)])
        assert registry.as_dict()["collected"]["src"] == {"x_total": 2.0}

    def test_raising_collector_surfaces_error_not_exception(self):
        registry = MetricsRegistry()

        def bad():
            raise RuntimeError("boom")

        registry.register_collector("bad", bad)
        registry.register_collector("good", lambda: [("ok_total", {}, 1)])
        snapshot = registry.as_dict()
        assert snapshot["collector_errors"]["bad"] == "RuntimeError: boom"
        assert snapshot["collected"]["good"] == {"ok_total": 1.0}
        # Rendering must survive too.
        assert "ok_total 1" in render_prometheus(registry)

    def test_unregister_collector(self):
        registry = MetricsRegistry()
        registry.register_collector("src", lambda: [("x_total", {}, 1)])
        assert registry.unregister_collector("src")
        assert not registry.unregister_collector("src")
        assert registry.as_dict()["collected"] == {}


class TestPrometheusRendering:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("reqs_total", "Requests", ("model",)).labels(
            model="stsm"
        ).inc(4)
        registry.gauge("depth").set(2)
        text = render_prometheus(registry)
        assert "# HELP reqs_total Requests" in text
        assert "# TYPE reqs_total counter" in text
        assert 'reqs_total{model="stsm"} 4' in text
        assert "# TYPE depth gauge" in text
        assert "depth 2" in text

    def test_histogram_cumulative_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", "", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        text = render_prometheus(registry)
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1.0"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert "lat_seconds_count 3" in text
        assert "lat_seconds_sum 5.55" in text

    def test_multiple_registries_concatenate(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("a_total").inc()
        b.counter("b_total").inc()
        text = render_prometheus(a, b)
        assert "a_total 1" in text and "b_total 1" in text

    def test_collector_samples_render_untyped(self):
        registry = MetricsRegistry()
        registry.register_collector(
            "src", lambda: [("x_total", {"worker": "w0"}, 9)]
        )
        text = render_prometheus(registry)
        assert "# TYPE x_total untyped" in text
        assert 'x_total{worker="w0"} 9' in text

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""


def test_global_registry_is_a_singleton():
    assert global_registry() is global_registry()
