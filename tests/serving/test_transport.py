"""HTTP transport end-to-end: server + client over a real socket."""

from __future__ import annotations

import http.client
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.interfaces import FitReport, Forecaster
from repro.obs.metrics import render_prometheus
from repro.serving import (
    InvalidRequest,
    ModelNotFound,
    QueueFull,
    ServingError,
    ServingRuntime,
)
from repro.serving.transport import (
    CodecError,
    ForecastClient,
    ForecastHTTPServer,
    codec,
)


class _Affine(Forecaster):
    """Deterministic, batch-invariant toy model: start * scale + grid."""

    name = "affine"

    def __init__(self, scale: float = 1.0) -> None:
        self.scale = scale

    def fit(self, dataset, split, spec, train_steps) -> FitReport:
        return FitReport()

    def predict(self, window_starts: np.ndarray) -> np.ndarray:
        window_starts = np.asarray(window_starts, dtype=int)
        grid = np.arange(6, dtype=float).reshape(2, 3)
        return window_starts[:, None, None] * self.scale + grid[None]


class _Gated(Forecaster):
    """Predict blocks until released — deterministic queue-full setups."""

    name = "gated"

    def __init__(self) -> None:
        self.release = threading.Event()
        self.entered = threading.Event()

    def fit(self, dataset, split, spec, train_steps) -> FitReport:
        return FitReport()

    def predict(self, window_starts: np.ndarray) -> np.ndarray:
        self.entered.set()
        assert self.release.wait(10.0), "test forgot to release the gate"
        return np.zeros((len(np.asarray(window_starts)), 2, 3))


@pytest.fixture()
def served():
    """A ready two-model server plus a client wired to it."""
    with ServingRuntime(log_batches=True) as runtime:
        runtime.register("toy/a", _Affine(1000.0))
        runtime.register("toy/b", _Affine(7.0))
        with ForecastHTTPServer(runtime).start() as server:
            server.set_ready()
            with ForecastClient("127.0.0.1", server.port,
                                retries=2, backoff_s=0.01) as client:
                yield runtime, server, client


class TestForecastRoutes:
    def test_single_window_bitwise(self, served):
        _runtime, _server, client = served
        block = client.forecast_one("toy/a", 42)
        assert np.array_equal(block, _Affine(1000.0).predict(np.array([42]))[0])
        assert block.dtype == np.float64

    def test_many_windows_bitwise_with_duplicates(self, served):
        _runtime, _server, client = served
        starts = [3, 11, 3, 7]
        stacked = client.forecast("toy/b", starts)
        assert stacked.shape == (4, 2, 3)
        direct = _Affine(7.0).predict(np.asarray(starts))
        assert np.array_equal(stacked, direct)

    def test_routes_by_model(self, served):
        _runtime, _server, client = served
        a = client.forecast_one("toy/a", 2)
        b = client.forecast_one("toy/b", 2)
        assert a[0, 0] == 2000.0 and b[0, 0] == 14.0

    def test_connection_reuse(self, served):
        """Many requests through one client ride one kept-alive socket."""
        _runtime, _server, client = served
        client.forecast_one("toy/a", 0)
        sock = client._sock
        for start in range(1, 20):
            client.forecast_one("toy/a", start)
        assert client._sock is sock  # still the persistent connection

    def test_single_endpoint_rejects_batches(self, served):
        _runtime, server, _client = served
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request("POST", "/v1/forecast/toy/a",
                     body=codec.encode_request([1, 2, 3]),
                     headers={"Content-Type": codec.CONTENT_TYPE})
        response = conn.getresponse()
        body = response.read()
        conn.close()
        assert response.status == 400
        with pytest.raises(InvalidRequest, match="exactly one"):
            codec.decode_array(body)


class TestErrorMapping:
    def test_unknown_model_raises_model_not_found(self, served):
        _runtime, _server, client = served
        with pytest.raises(ModelNotFound, match="unknown model key"):
            client.forecast_one("toy/missing", 0)

    def test_overflowing_start_is_invalid_request(self, served):
        _runtime, server, client = served
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request("POST", "/v1/forecast/toy/a",
                     body=codec.encode_frame({"kind": "forecast", "starts": [10**30]}),
                     headers={"Content-Type": codec.CONTENT_TYPE})
        response = conn.getresponse()
        body = response.read()
        conn.close()
        assert response.status == 400
        with pytest.raises(InvalidRequest, match="int64"):
            codec.decode_array(body)
        assert client.forecast_one("toy/a", 2)[0, 0] == pytest.approx(2000.0)

    def test_garbage_body_raises_codec_error(self, served):
        _runtime, server, _client = served
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request("POST", "/v1/forecast/toy/a", body=b"definitely not a frame",
                     headers={"Content-Type": codec.CONTENT_TYPE})
        response = conn.getresponse()
        body = response.read()
        conn.close()
        assert response.status == 400
        with pytest.raises(CodecError):
            codec.decode_array(body)

    def test_version_mismatch_rejected(self, served):
        _runtime, server, _client = served
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request(
            "POST", "/v1/forecast/toy/a", body=codec.encode_request([1]),
            headers={"Content-Type": "application/x-repro-frame; version=999"},
        )
        response = conn.getresponse()
        body = response.read()
        conn.close()
        assert response.status == 400
        with pytest.raises(CodecError, match="version"):
            codec.decode_array(body)

    def test_rejected_body_does_not_desync_keepalive(self, served):
        """An error reply must consume the request body, or the next
        request on the same kept-alive connection parses stale bytes."""
        _runtime, server, _client = served
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request(
            "POST", "/v1/forecast/toy/a", body=codec.encode_request([1]),
            headers={"Content-Type": "application/x-repro-frame; version=999"},
        )
        response = conn.getresponse()
        response.read()
        assert response.status == 400
        # Same connection, now a valid request: must succeed cleanly.
        conn.request("POST", "/v1/forecast/toy/a",
                     body=codec.encode_request([5]),
                     headers={"Content-Type": codec.CONTENT_TYPE})
        response = conn.getresponse()
        body = response.read()
        conn.close()
        assert response.status == 200
        assert np.array_equal(codec.decode_array(body),
                              _Affine(1000.0).predict(np.array([5]))[0])

    def test_oversized_body_rejected(self):
        with ServingRuntime() as runtime:
            runtime.register("toy/a", _Affine())
            with ForecastHTTPServer(runtime, max_body_bytes=64).start() as server:
                server.set_ready()
                with ForecastClient("127.0.0.1", server.port, retries=0) as client:
                    with pytest.raises(InvalidRequest, match="exceeds"):
                        client.forecast("toy/a", list(range(1000)))

    def test_queue_full_maps_over_wire(self):
        model = _Gated()
        with ServingRuntime(max_batch=1, max_queue=1,
                            admission="reject") as runtime:
            scheduler = runtime.register("gated", model)
            with ForecastHTTPServer(runtime).start() as server:
                server.set_ready()
                # Occupy the worker (one request being predicted) ...
                in_flight = scheduler.submit(0)
                assert model.entered.wait(5.0)
                # ... and fill the queue behind it.
                queued = scheduler.submit(1)
                with ForecastClient("127.0.0.1", server.port,
                                    retries=0) as client:
                    with pytest.raises(QueueFull):
                        client.forecast_one("gated", 2)
                model.release.set()
                in_flight.result(10.0)
                queued.result(10.0)

    def test_rejected_many_request_enqueues_nothing(self):
        """A refused /v1/forecast_many queues none of its windows: none
        are predicted, and none count as submitted."""
        model = _Gated()
        with ServingRuntime(max_batch=1, max_queue=2, admission="reject",
                            log_batches=True) as runtime:
            scheduler = runtime.register("gated", model)
            with ForecastHTTPServer(runtime).start() as server:
                server.set_ready()
                in_flight = scheduler.submit(0)
                assert model.entered.wait(5.0)
                queued = scheduler.submit(1)  # one request already queued
                before = scheduler.stats
                with ForecastClient("127.0.0.1", server.port,
                                    retries=0) as client:
                    with pytest.raises(QueueFull):
                        client.forecast("gated", [10, 11, 12])
                after = scheduler.stats
                model.release.set()
                in_flight.result(10.0)
                queued.result(10.0)
                assert runtime.drain("gated", timeout=10.0)
                logged = {int(s) for batch in scheduler.service.batch_log
                          for s in batch}
        assert after["submitted"] == before["submitted"]
        assert after["rejected"] == before["rejected"] + 3
        assert logged == {0, 1}

    def test_unknown_path_is_json_404(self, served):
        _runtime, server, _client = served
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request("GET", "/v2/nothing")
        response = conn.getresponse()
        assert response.status == 404
        assert response.getheader("Content-Type") == "application/json"
        conn.close()


class TestReadinessGating:
    def test_forecasts_refused_until_ready(self):
        with ServingRuntime() as runtime:
            runtime.register("toy/a", _Affine())
            with ForecastHTTPServer(runtime).start() as server:
                with ForecastClient("127.0.0.1", server.port,
                                    retries=0) as client:
                    health = client.health()
                    assert health["ready"] is False
                    with pytest.raises(ServingError, match="warming up"):
                        client.forecast_one("toy/a", 0)
                    server.set_ready()
                    assert client.wait_ready(5.0)
                    client.forecast_one("toy/a", 0)

    def test_retry_rides_out_warmup(self):
        """A 503 not_ready answer is retried until the worker flips ready."""
        with ServingRuntime() as runtime:
            runtime.register("toy/a", _Affine())
            with ForecastHTTPServer(runtime).start() as server:
                flipper = threading.Timer(0.15, server.set_ready)
                flipper.start()
                try:
                    with ForecastClient("127.0.0.1", server.port,
                                        retries=20, backoff_s=0.02) as client:
                        block = client.forecast_one("toy/a", 5)
                        assert block.shape == (2, 3)
                finally:
                    flipper.cancel()


class TestIntrospection:
    def test_models_and_stats(self, served):
        _runtime, server, client = served
        client.forecast_one("toy/a", 1)
        assert client.models() == ["toy/a", "toy/b"]
        stats = client.stats()
        assert stats["worker"] == "worker-0"
        assert stats["transport"]["requests"] >= 2
        assert stats["transport"]["bytes_out"] > 0
        assert "toy/a" in stats["runtime"]["models"]
        assert stats["runtime"]["totals"]["completed"] >= 1

    def test_listeners_of_one_worker_share_one_transport_series(self, served):
        """A worker's public and control listeners (same runtime, same
        label) count into the same registry children."""
        runtime, server, client = served
        with ForecastHTTPServer(runtime).start() as control:
            control.set_ready()
            with ForecastClient("127.0.0.1", control.port) as other:
                other.forecast_one("toy/a", 1)
            client.forecast_one("toy/a", 2)
            # A response is counted just after its bytes are written.
            deadline = time.monotonic() + 5.0
            while (server.transport_stats()["requests"] < 2
                   and time.monotonic() < deadline):
                time.sleep(0.005)
            assert server.transport_stats()["requests"] == 2
            assert control.transport_stats() == server.transport_stats()
            assert (
                'repro_transport_requests_total{worker="worker-0"} 2'
                in render_prometheus(runtime.metrics)
            )

    def test_batch_log_round_trip(self, served):
        runtime, _server, client = served
        client.forecast("toy/a", [4, 9])
        log = client.batch_log("toy/a")
        served_starts = {int(s) for batch in log for s in batch}
        assert {4, 9} <= served_starts
        # The wire view matches the in-process view.
        local = runtime.scheduler("toy/a").service.batch_log
        assert [b.tolist() for b in log] == [b.tolist() for b in local]

    def test_batch_log_404_when_logging_off(self):
        with ServingRuntime(log_batches=False) as runtime:
            runtime.register("toy/a", _Affine())
            with ForecastHTTPServer(runtime).start() as server:
                server.set_ready()
                with ForecastClient("127.0.0.1", server.port,
                                    retries=0) as client:
                    with pytest.raises(ServingError, match="batch logging is off"):
                        client.batch_log("toy/a")


def _per_thread_load(port, pool, num_threads, requests_per_thread, seed, model=None):
    """Each thread opens its own client (own connection) and draws
    ``requests_per_thread`` items from ``pool``; returns (item, block) pairs.
    Items are window starts when ``model`` is given, else (model, start)."""

    def serve(thread):
        picks = np.random.default_rng([seed, thread]).integers(
            len(pool), size=requests_per_thread)
        with ForecastClient("127.0.0.1", port) as client:
            if model is not None:
                return [(pool[i], client.forecast_one(model, pool[i])) for i in picks]
            return [(pool[i], client.forecast_one(*pool[i])) for i in picks]

    with ThreadPoolExecutor(num_threads) as threads:
        return [pair for part in threads.map(serve, range(num_threads)) for pair in part]


class TestWireLoadGeneration:
    def test_wire_driver_single_model_parity(self, served):
        _runtime, server, _client = served
        pool = list(range(12))
        served_pairs = _per_thread_load(server.port, pool, num_threads=4,
                                        requests_per_thread=10, seed=3, model="toy/a")
        assert len(served_pairs) == 40
        reference = _Affine(1000.0).predict(np.asarray(pool))
        for start, value in served_pairs:
            assert np.array_equal(value, reference[pool.index(start)])

    def test_wire_driver_routed_items(self, served):
        _runtime, server, _client = served
        pool = [("toy/a", 1), ("toy/b", 1), ("toy/a", 5)]
        scales = {"toy/a": 1000.0, "toy/b": 7.0}
        served_pairs = _per_thread_load(server.port, pool, num_threads=2,
                                        requests_per_thread=6, seed=0)
        assert len(served_pairs) == 12
        for (model, start), value in served_pairs:
            direct = _Affine(scales[model]).predict(np.asarray([start]))[0]
            assert np.array_equal(value, direct)


class TestServerLifecycle:
    def test_shutdown_idempotent_and_port_released(self):
        with ServingRuntime() as runtime:
            runtime.register("toy/a", _Affine())
            server = ForecastHTTPServer(runtime).start()
            port = server.port
            server.shutdown()
            server.shutdown()  # idempotent
            # The port is free again: a new server can bind it.
            rebound = ForecastHTTPServer(runtime, port=port)
            rebound.shutdown()

    def test_shutdown_does_not_wait_out_a_poll(self):
        with ServingRuntime() as runtime:
            runtime.register("toy/a", _Affine())
            server = ForecastHTTPServer(runtime).start()
            time.sleep(0.05)  # let the serve loop enter its poll
            began = time.monotonic()
            server.shutdown()
            assert time.monotonic() - began < 0.2

    def test_double_start_rejected(self):
        with ServingRuntime() as runtime:
            runtime.register("toy/a", _Affine())
            with ForecastHTTPServer(runtime).start() as server:
                with pytest.raises(RuntimeError, match="already started"):
                    server.start()


def test_client_connection_error_after_shutdown():
    with ServingRuntime() as runtime:
        runtime.register("toy/a", _Affine())
        server = ForecastHTTPServer(runtime).start()
        server.set_ready()
        port = server.port
        client = ForecastClient("127.0.0.1", port, retries=1, backoff_s=0.01)
        client.forecast_one("toy/a", 0)
        server.shutdown()
        # An established keep-alive connection still drains (its handler
        # thread outlives the listener — that is the graceful part), but
        # a fresh dial must fail cleanly through the retry loop.
        client.close()
        time.sleep(0.05)
        with pytest.raises(ServingError, match="could not reach"):
            client.forecast_one("toy/a", 1)
        client.close()
