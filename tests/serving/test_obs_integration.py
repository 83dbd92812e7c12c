"""Observability end-to-end over the serving stack.

One wire request must yield ONE trace id visible at every layer —
client header → server span → scheduler spans → service spans → store
spans — and the metrics surfaces (``GET /metrics``, ``stats()``'s
``metrics`` section) must expose the migrated counters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ArtifactStore
from repro.interfaces import FitReport, Forecaster
from repro.obs import get_recorder, set_obs_enabled
from repro.obs.metrics import render_prometheus
from repro.serving import ServingRuntime
from repro.serving.service import ForecastService
from repro.serving.transport import ForecastClient, ForecastHTTPServer, codec


class _Affine(Forecaster):
    name = "affine"
    #: Content scope so a store-backed service can cache its windows.
    state_digest = b"obs-affine-v1"

    def fit(self, dataset, split, spec, train_steps) -> FitReport:
        return FitReport()

    def predict(self, window_starts: np.ndarray) -> np.ndarray:
        window_starts = np.asarray(window_starts, dtype=int)
        grid = np.arange(6, dtype=float).reshape(2, 3)
        return window_starts[:, None, None] * 3.0 + grid[None]


@pytest.fixture()
def traced_server():
    """Store-backed served model with tracing on; recorder restored after."""
    recorder = get_recorder()
    set_obs_enabled(True)
    recorder.clear()
    store = ArtifactStore()
    service = ForecastService(_Affine(), store=store, store_scope=b"obs-test")
    try:
        with ServingRuntime() as runtime:
            runtime.attach_store(store)
            runtime.register("toy", service)
            with ForecastHTTPServer(runtime).start() as server:
                server.set_ready()
                with ForecastClient("127.0.0.1", server.port,
                                    retries=2, backoff_s=0.01) as client:
                    yield runtime, server, client, recorder
    finally:
        set_obs_enabled(None)
        recorder.clear()


class TestEndToEndTrace:
    def test_one_request_one_trace_through_every_layer(self, traced_server):
        _runtime, _server, client, recorder = traced_server
        block = client.forecast_one("toy", 5)
        assert np.array_equal(block, _Affine().predict(np.array([5]))[0])
        trace_id = client.last_trace_id
        assert trace_id is not None
        spans = recorder.spans(trace_id)
        names = {s["name"] for s in spans}
        assert {"client.request", "server.request", "scheduler.queue_wait",
                "scheduler.batch_dispatch", "service.cache_lookup",
                "service.predict", "store.get"} <= names
        # Every span carries the SAME trace id (the assertion above
        # already filtered; double-check none leaked to another trace).
        assert all(s["trace"] == trace_id for s in spans)

    def test_parent_links_form_one_tree(self, traced_server):
        _runtime, _server, client, recorder = traced_server
        client.forecast_one("toy", 9)
        spans = recorder.spans(client.last_trace_id)
        by_name = {s["name"]: s for s in spans}
        client_span = by_name["client.request"]
        server_span = by_name["server.request"]
        dispatch = by_name["scheduler.batch_dispatch"]
        assert client_span["parent"] is None
        assert server_span["parent"] == client_span["span"]
        assert dispatch["parent"] == server_span["span"]
        assert by_name["service.predict"]["parent"] == dispatch["span"]
        # Store probes run inside the batch scope, under the ambient ctx.
        assert by_name["store.get"]["trace"] == client_span["trace"]

    def test_scheduler_spans_and_metrics_share_one_model_value(self, traced_server):
        runtime, _server, client, recorder = traced_server
        client.forecast_one("toy", 13)  # queued: queue_wait + batch_dispatch
        spans = [
            s for s in recorder.spans(client.last_trace_id)
            if s["name"].startswith("scheduler.")
        ]
        assert {s["name"] for s in spans} == {
            "scheduler.queue_wait", "scheduler.batch_dispatch"
        }
        assert {s["attrs"]["model"] for s in spans} == {"toy"}
        runtime.register("hot", _Affine())
        client.forecast_one("hot", 13)
        client.forecast_one("hot", 13)  # cache hit on the submitting thread
        hit = recorder.spans(client.last_trace_id)
        assert not [s for s in hit if s["name"].startswith("scheduler.")]
        assert [s["attrs"]["hit"] for s in hit if s["name"] == "store.get"] == [True]
        rendered = render_prometheus(runtime.metrics)
        assert 'repro_requests_completed_total{model="toy"}' in rendered
        assert 'repro_cache_hits_total{model="hot"} 1' in rendered

    def test_wire_trace_arrives_via_traces_endpoint(self, traced_server):
        _runtime, _server, client, recorder = traced_server
        client.forecast("toy", [1, 2, 3])
        trace_id = client.last_trace_id
        exported = client.traces(trace_id)
        assert exported and all(s["trace"] == trace_id for s in exported)
        assert {"server.request", "service.predict"} <= {
            s["name"] for s in exported
        }

    def test_untraced_client_sends_no_header(self, traced_server):
        _runtime, _server, client, recorder = traced_server
        untraced = ForecastClient("127.0.0.1", client.port, trace=False)
        with untraced:
            untraced.forecast_one("toy", 7)
        assert untraced.last_trace_id is None

    def test_cache_hit_span_reports_hit(self, traced_server):
        _runtime, _server, client, recorder = traced_server
        client.forecast_one("toy", 11)  # miss, computes
        client.forecast_one("toy", 11)  # hit
        hits = [
            s["attrs"].get("hit")
            for s in recorder.spans(client.last_trace_id)
            if s["name"] == "store.get"
        ]
        assert True in hits


class TestMetricsSurfaces:
    def test_metrics_endpoint_exposes_required_names(self, traced_server):
        _runtime, _server, client, _recorder = traced_server
        client.forecast("toy", [1, 2, 3, 4])
        text = client.metrics_text()
        for required in (
            "repro_request_latency_seconds_bucket",
            "repro_request_latency_seconds_count",
            "repro_requests_submitted_total",
            "repro_requests_completed_total",
            "repro_cache_hits_total",
            "repro_store_hits_total",
            "repro_transport_requests_total",
            "repro_queue_depth",
        ):
            assert required in text, f"missing {required} in /metrics"
        assert 'repro_requests_completed_total{model="toy"} 4' in text

    def test_stats_metrics_section(self, traced_server):
        runtime, _server, client, _recorder = traced_server
        client.forecast_one("toy", 1)
        stats = runtime.stats()
        metrics = stats["metrics"]
        assert "repro_request_latency_seconds{model=\"toy\"}" in (
            metrics["histograms"]
        )
        counters = metrics["counters"]
        assert counters['repro_requests_completed_total{model="toy"}'] >= 1

    def test_metrics_is_a_reserved_stats_section(self, traced_server):
        runtime, _server, _client, _recorder = traced_server
        with pytest.raises(ValueError, match="reserved"):
            runtime.add_stats_source("metrics", dict)

    def test_latency_summary_shape_unchanged(self, traced_server):
        runtime, _server, client, _recorder = traced_server
        for start in range(8):
            client.forecast_one("toy", start)
        latency = runtime.stats("toy")["latency"]
        assert latency["count"] == 8
        assert latency["p50_ms"] <= latency["p95_ms"] <= latency["p99_ms"]
        assert latency["max_ms"] >= latency["p99_ms"] * 0.99


class TestObsOffIsInert:
    def test_no_spans_and_no_header_by_default(self):
        set_obs_enabled(False)
        recorder = get_recorder()
        recorder.clear()
        try:
            with ServingRuntime() as runtime:
                runtime.register("toy", _Affine())
                with ForecastHTTPServer(runtime).start() as server:
                    server.set_ready()
                    with ForecastClient("127.0.0.1", server.port) as client:
                        client.forecast_one("toy", 3)
                        assert client.last_trace_id is None
            assert recorder.spans() == []
        finally:
            set_obs_enabled(None)

    def test_malformed_wire_trace_is_ignored(self):
        body = codec.encode_frame(
            {"kind": "forecast", "starts": [1], "trace": {"id": 42}}
        )
        starts, trace = codec.decode_request_meta(body)
        assert starts == [1] and trace is None

    def test_well_formed_wire_trace_round_trips(self):
        body = codec.encode_request(
            [1, 2], trace={"id": "a" * 16, "span": "b" * 8}
        )
        starts, trace = codec.decode_request_meta(body)
        assert starts == [1, 2]
        assert trace == {"id": "a" * 16, "span": "b" * 8}
