"""ServingRuntime: multi-model routing, lifecycle, aggregated stats."""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.interfaces import FitReport, Forecaster
from repro.obs.metrics import render_prometheus
from repro.serving import ServingRuntime


class _KeyedForecaster(Forecaster):
    """Toy model whose outputs are tagged by a per-model scale."""

    name = "keyed"

    def __init__(self, scale: float) -> None:
        self.scale = scale

    def fit(self, dataset, split, spec, train_steps) -> FitReport:
        return FitReport()

    def predict(self, window_starts: np.ndarray) -> np.ndarray:
        window_starts = np.asarray(window_starts, dtype=int)
        grid = np.zeros((2, 3))
        return window_starts[:, None, None] * self.scale + grid[None]


class _UnfittedForecaster(Forecaster):
    name = "unfitted"
    _fitted = False

    def fit(self, dataset, split, spec, train_steps) -> FitReport:
        return FitReport()

    def predict(self, window_starts: np.ndarray) -> np.ndarray:
        raise AssertionError("never reached")


class _SlowForecaster(Forecaster):
    """Fixed per-predict delay, so swaps overlap in-flight batches."""

    name = "slow"

    def __init__(self, delay_s: float) -> None:
        self.delay_s = delay_s

    def fit(self, dataset, split, spec, train_steps) -> FitReport:
        return FitReport()

    def predict(self, window_starts: np.ndarray) -> np.ndarray:
        time.sleep(self.delay_s)
        starts = np.asarray(window_starts, dtype=float)
        return starts[:, None, None] + np.zeros((1, 2, 3))


class TestRouting:
    def test_requests_route_by_model_key(self):
        with ServingRuntime() as runtime:
            runtime.register("bay", _KeyedForecaster(1000.0))
            runtime.register("mel", _KeyedForecaster(7.0))
            assert runtime.models == ["bay", "mel"]
            assert "bay" in runtime and "missing" not in runtime
            bay = runtime.forecast("bay", np.array([3]))
            mel = runtime.forecast("mel", np.array([3]))
            assert bay[0, 0, 0] == pytest.approx(3000.0)
            assert mel[0, 0, 0] == pytest.approx(21.0)

    def test_unknown_key_raises_with_candidates(self):
        with ServingRuntime() as runtime:
            runtime.register("bay", _KeyedForecaster(1.0))
            with pytest.raises(KeyError, match=r"unknown model key 'nope'.*bay"):
                runtime.submit("nope", 0)

    def test_duplicate_key_rejected(self):
        with ServingRuntime() as runtime:
            runtime.register("bay", _KeyedForecaster(1.0))
            with pytest.raises(ValueError, match="already registered"):
                runtime.register("bay", _KeyedForecaster(2.0))

    def test_unfitted_model_rejected_at_register(self):
        with ServingRuntime() as runtime:
            with pytest.raises(RuntimeError):
                runtime.register("bad", _UnfittedForecaster())

    def test_register_accepts_prebuilt_service(self):
        from repro.serving import ForecastService

        service = ForecastService(_KeyedForecaster(5.0), cache_size=8)
        with ServingRuntime(cache_size=128) as runtime:
            scheduler = runtime.register("bay", service)
            assert scheduler.service is service
            assert runtime.forecast("bay", np.array([2]))[0, 0, 0] == pytest.approx(10.0)
            # An explicit per-model cache_size override still surfaces
            # the incompatibility.
            with pytest.raises(ValueError, match="cache_size"):
                runtime.register(
                    "other", ForecastService(_KeyedForecaster(1.0)), cache_size=16
                )

    def test_per_model_scheduler_overrides(self):
        with ServingRuntime(max_queue=1024) as runtime:
            scheduler = runtime.register(
                "bay", _KeyedForecaster(1.0), max_queue=3, admission="reject"
            )
            assert scheduler.max_queue == 3
            assert scheduler.admission == "reject"


class TestLifecycle:
    def test_warm_up_populates_cache_through_serving_path(self):
        with ServingRuntime() as runtime:
            runtime.register("bay", _KeyedForecaster(10.0))
            cached = runtime.warm_up("bay", np.arange(6))
            assert cached == 6
            runtime.forecast("bay", np.arange(6))  # all warm now
            stats = runtime.stats("bay")
            assert stats["service"]["cache_hits"] >= 6

    def test_warm_up_counts_only_windows_still_cached(self):
        # Warming more windows than the cache holds evicts the earliest;
        # the count reports what is cached, not what was ever touched.
        with ServingRuntime(cache_size=4) as runtime:
            runtime.register("bay", _KeyedForecaster(10.0))
            assert runtime.warm_up("bay", np.arange(8)) == 4

    def test_drain_all_models(self):
        with ServingRuntime() as runtime:
            runtime.register("a", _KeyedForecaster(1.0))
            runtime.register("b", _KeyedForecaster(2.0))
            handles = [runtime.submit("a", s) for s in range(4)]
            handles += [runtime.submit("b", s) for s in range(4)]
            assert runtime.drain(timeout=10)
            assert all(h.done() for h in handles)

    def test_shutdown_stops_all_models_and_register(self):
        runtime = ServingRuntime()
        runtime.register("a", _KeyedForecaster(1.0))
        runtime.shutdown()
        with pytest.raises(RuntimeError):
            runtime.submit("a", 0)
        with pytest.raises(RuntimeError, match="shut down"):
            runtime.register("b", _KeyedForecaster(2.0))

    def test_context_manager_shuts_down(self):
        with ServingRuntime() as runtime:
            runtime.register("a", _KeyedForecaster(1.0))
        with pytest.raises(RuntimeError):
            runtime.submit("a", 0)

    def test_unknown_key_is_model_not_found(self):
        from repro.serving import ModelNotFound, ServingError

        with ServingRuntime() as runtime:
            with pytest.raises(ModelNotFound) as excinfo:
                runtime.submit("nope", 0)
        # The taxonomy member is both a ServingError and (compat) KeyError.
        assert isinstance(excinfo.value, ServingError)
        assert isinstance(excinfo.value, KeyError)


class _GatedForecaster(Forecaster):
    """Predict blocks until released, so a drain can be held open."""

    name = "gated"

    def __init__(self) -> None:
        self.release = threading.Event()
        self.entered = threading.Event()

    def fit(self, dataset, split, spec, train_steps) -> FitReport:
        return FitReport()

    def predict(self, window_starts: np.ndarray) -> np.ndarray:
        self.entered.set()
        assert self.release.wait(10.0), "gate never released"
        return np.zeros((len(np.asarray(window_starts)), 2, 3))


class TestDrainLifecycleRace:
    """register()/shutdown() during an in-flight drain() must raise, not
    corrupt the scheduler map (a model registered mid-drain would escape
    the barrier; a shutdown mid-drain would fail promised requests)."""

    def _draining_runtime(self):
        model = _GatedForecaster()
        runtime = ServingRuntime(max_batch=1)
        runtime.register("gated", model)
        handle = runtime.submit("gated", 0)
        assert model.entered.wait(5.0)  # the batch is being predicted

        drained = threading.Event()
        outcome = {}

        def drain():
            outcome["ok"] = runtime.drain(timeout=10.0)
            drained.set()

        drainer = threading.Thread(target=drain, daemon=True)
        drainer.start()
        # The drain is now parked on the in-flight batch.
        deadline = time.monotonic() + 5.0
        while not runtime._draining:
            assert time.monotonic() < deadline, "drain never started"
            time.sleep(0.005)
        return runtime, model, handle, drained, outcome

    def test_register_during_drain_raises(self):
        runtime, model, handle, drained, outcome = self._draining_runtime()
        try:
            with pytest.raises(RuntimeError, match="drain\\(\\) is in flight"):
                runtime.register("late", _KeyedForecaster(1.0))
        finally:
            model.release.set()
        assert drained.wait(10.0) and outcome["ok"]
        assert handle.result(5.0).shape == (2, 3)
        # After the barrier releases, registration works again.
        runtime.register("late", _KeyedForecaster(1.0))
        assert "late" in runtime
        runtime.shutdown()

    def test_shutdown_during_drain_raises(self):
        runtime, model, handle, drained, outcome = self._draining_runtime()
        try:
            with pytest.raises(RuntimeError, match="drain\\(\\) is in flight"):
                runtime.shutdown()
        finally:
            model.release.set()
        assert drained.wait(10.0) and outcome["ok"]
        assert handle.result(5.0).shape == (2, 3)
        runtime.shutdown()  # clean afterwards
        assert runtime.models == ["gated"]

    def test_concurrent_drains_are_allowed(self):
        model = _GatedForecaster()
        runtime = ServingRuntime(max_batch=1)
        runtime.register("gated", model)
        runtime.submit("gated", 0)
        assert model.entered.wait(5.0)
        results = []
        drainers = [
            threading.Thread(target=lambda: results.append(runtime.drain(timeout=10.0)))
            for _ in range(3)
        ]
        for t in drainers:
            t.start()
        model.release.set()
        for t in drainers:
            t.join(timeout=10.0)
        assert results == [True, True, True]
        runtime.shutdown()


class TestStats:
    def test_per_model_and_total_telemetry(self):
        with ServingRuntime() as runtime:
            runtime.register("a", _KeyedForecaster(1.0))
            runtime.register("b", _KeyedForecaster(2.0))
            pool = [("a", s) for s in range(5)] + [("b", s) for s in range(5)]

            def serve(thread):
                picks = np.random.default_rng([2, thread]).integers(len(pool), size=30)
                for key, start in (pool[i] for i in picks):
                    runtime.submit(key, start).result()

            with ThreadPoolExecutor(4) as threads:
                list(threads.map(serve, range(4)))
            runtime.drain()
            stats = runtime.stats()
        per_model, totals = stats["models"], stats["totals"]
        assert set(per_model) == {"a", "b"}
        assert totals["models"] == 2
        assert totals["completed"] == 4 * 30
        assert totals["completed"] == sum(s["completed"] for s in per_model.values())
        assert totals["cache_hit_pct"] > 0.0
        for s in per_model.values():
            latency = s["latency"]
            assert latency["count"] == s["completed"]
            assert latency["p50_ms"] <= latency["p95_ms"] <= latency["p99_ms"]
            assert s["throughput_rps"] is None or s["throughput_rps"] > 0
            assert s["queue_depth"] == 0  # drained

    def test_empty_scheduler_latency_summary(self):
        with ServingRuntime() as runtime:
            runtime.register("a", _KeyedForecaster(1.0))
            stats = runtime.stats("a")
        assert stats["latency"]["count"] == 0
        assert stats["latency"]["p50_ms"] is None
        assert stats["throughput_rps"] is None


def _total_samples(runtime: ServingRuntime) -> dict[str, float]:
    """Every ``*_total`` sample of a ``/metrics`` scrape, by series."""
    samples = {}
    for line in render_prometheus(runtime.metrics).splitlines():
        if line and not line.startswith("#"):
            series, value = line.rsplit(" ", 1)
            if series.split("{")[0].endswith("_total"):
                samples[series] = float(value)
    return samples


class TestBlueGreenSwap:
    def test_replace_swaps_atomically(self):
        with ServingRuntime() as runtime:
            runtime.register("bay", _KeyedForecaster(1.0))
            assert runtime.forecast("bay", np.array([5]))[0, 0, 0] == pytest.approx(5.0)
            runtime.register("bay", _KeyedForecaster(100.0), replace=True)
            assert runtime.forecast("bay", np.array([5]))[0, 0, 0] == pytest.approx(500.0)
            assert runtime.models == ["bay"]

    def test_replace_without_existing_is_plain_register(self):
        with ServingRuntime() as runtime:
            runtime.register("bay", _KeyedForecaster(2.0), replace=True)
            assert runtime.forecast("bay", np.array([3]))[0, 0, 0] == pytest.approx(6.0)
            assert "swaps" not in runtime.stats()

    def test_duplicate_error_mentions_replace(self):
        with ServingRuntime() as runtime:
            runtime.register("bay", _KeyedForecaster(1.0))
            with pytest.raises(ValueError, match="replace=True"):
                runtime.register("bay", _KeyedForecaster(2.0))

    def test_swap_drains_old_scheduler_and_keeps_counting(self):
        with ServingRuntime() as runtime:
            runtime.register("bay", _KeyedForecaster(1.0))
            handles = [runtime.submit("bay", s) for s in range(6)]
            runtime.register("bay", _KeyedForecaster(10.0), replace=True)
            # Requests accepted pre-swap were served (by the old model)
            # before its scheduler shut down.
            assert all(h.done() for h in handles)
            assert [h.result()[0, 0] for h in handles] == [float(s) for s in range(6)]
            stats = runtime.stats()
            swaps = stats["swaps"]
            assert swaps["count"] == 1
            assert swaps["by_model"] == {"bay": 1}
            record = swaps["history"][-1]
            assert record["model"] == "bay"
            assert record["drain_seconds"] >= 0
            # The model's counters run on across the swap: the live
            # scheduler reads the series the old one counted into.
            bay = stats["models"]["bay"]
            assert bay["submitted"] == bay["completed"] == 6
            assert bay["failed"] == 0

    def test_metric_totals_never_decrease_across_swap(self):
        """Regression: service counters (cache hits, predict calls...)
        used to be read raw from the live service and reset on a swap."""
        with ServingRuntime() as runtime:
            runtime.register("m", _KeyedForecaster(1.0))
            runtime.forecast("m", np.arange(4))
            runtime.forecast("m", np.arange(4))  # all cache hits
            before = _total_samples(runtime)
            runtime.register("m", _KeyedForecaster(2.0), replace=True)
            after = _total_samples(runtime)
        assert before['repro_cache_hits_total{model="m"}'] > 0
        assert before['repro_predict_calls_total{model="m"}'] > 0
        for series, value in before.items():
            assert after[series] >= value, series

    def test_throughput_counts_only_the_window_it_covers(self):
        """The completed series runs on across a swap; a fresh
        scheduler's throughput divides only its own window's count."""
        with ServingRuntime() as runtime:
            runtime.register("m", _KeyedForecaster(1.0))
            runtime.forecast("m", np.arange(40))
            runtime.register("m", _KeyedForecaster(2.0), replace=True)
            runtime.forecast("m", np.arange(100, 104))
            assert runtime.drain("m", timeout=10.0)
            scheduler = runtime.scheduler("m")
            window = scheduler._last_complete_at - scheduler._first_submit_at
            assert scheduler.stats["completed"] == 44
            assert scheduler.throughput_rps * window == pytest.approx(4)

    def test_concurrent_submits_survive_swap(self):
        """Regression: a submit racing the swap (old scheduler's intake
        already closed) is transparently resubmitted, never dropped.
        Both sides of each swap count into one series concurrently, so
        a short switch interval makes a lost update show."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServingRuntime(max_queue=4096) as runtime:
                runtime.register("bay", _SlowForecaster(0.002))
                errors: list[Exception] = []
                served = [0] * 4
                stop = threading.Event()

                def hammer(worker: int) -> None:
                    while not stop.is_set():
                        try:
                            runtime.submit("bay", served[worker]).result()
                        except Exception as error:  # noqa: BLE001
                            errors.append(error)
                            return
                        served[worker] += 1

                threads = [
                    threading.Thread(target=hammer, args=(w,)) for w in range(4)
                ]
                for thread in threads:
                    thread.start()
                for _ in range(4):
                    time.sleep(0.03)
                    runtime.register("bay", _SlowForecaster(0.002), replace=True)
                stop.set()
                for thread in threads:
                    thread.join(timeout=30.0)
                assert not any(thread.is_alive() for thread in threads)
                assert not errors, f"swap dropped a request: {errors[:3]}"
                totals = runtime.stats()["totals"]
                assert totals["failed"] == 0
                assert totals["submitted"] == totals["completed"] == sum(served)
        finally:
            sys.setswitchinterval(interval)

    def test_queue_full_is_not_retried_as_a_swap(self):
        with ServingRuntime(max_queue=1,
                            admission="reject") as runtime:
            from repro.serving import QueueFull

            runtime.register("bay", _SlowForecaster(0.05))
            accepted = runtime.submit("bay", 0)
            with pytest.raises(QueueFull):
                for s in range(1, 50):
                    runtime.submit("bay", s)
            accepted.result()


class TestStatsSections:
    def test_attached_store_section(self):
        from repro.engine import ArtifactStore

        store = ArtifactStore()
        store.put("dtw_pair", b"k", np.arange(3.0))
        with ServingRuntime() as runtime:
            runtime.register("a", _KeyedForecaster(1.0))
            assert "store" not in runtime.stats()
            runtime.attach_store(store)
            section = runtime.stats()["store"]
            assert section["namespaces"]["dtw_pair"]["memory_items"] == 1
            assert section["namespaces"]["dtw_pair"]["memory_bytes"] == 24

    def test_store_published_twice_renders_once(self):
        """Regression: a store attached to a runtime and also opened as
        the process store rendered every repro_store_* series twice."""
        from repro.engine import ArtifactStore, open_store, reset_store
        from repro.obs.metrics import global_registry

        store = ArtifactStore()
        store.put("dtw_pair", b"k", np.arange(3.0))
        try:
            with ServingRuntime() as runtime:
                runtime.attach_store(store)
                open_store(store=store)
                text = render_prometheus(runtime.metrics, global_registry())
        finally:
            reset_store()
        series = [
            line.rsplit(" ", 1)[0]
            for line in text.splitlines()
            if line.startswith("repro_store_")
        ]
        assert 'repro_store_hits_total{namespace="dtw_pair"}' in series
        assert len(series) == len(set(series))

    def test_named_provider_section_and_errors(self):
        with ServingRuntime() as runtime:
            runtime.register("a", _KeyedForecaster(1.0))
            runtime.add_stats_source("streaming", lambda: {"deploys": 3})
            assert runtime.stats()["streaming"] == {"deploys": 3}

            def broken():
                raise RuntimeError("boom")

            runtime.add_stats_source("flaky", broken)
            assert runtime.stats()["flaky"] == {"error": "RuntimeError: boom"}

    def test_reserved_section_names_rejected(self):
        with ServingRuntime() as runtime:
            for name in ("models", "totals", "store", "swaps", "metrics"):
                with pytest.raises(ValueError, match="reserved"):
                    runtime.add_stats_source(name, dict)

    def test_raising_attached_store_degrades_to_error_stanza(self):
        """A wedged store's stats read must not take stats() down."""

        class _BrokenStore:
            @property
            def stats(self):
                raise OSError("disk gone")

        with ServingRuntime() as runtime:
            runtime.register("a", _KeyedForecaster(1.0))
            runtime.attach_store(_BrokenStore())
            stats = runtime.stats()
            assert stats["store"] == {"error": "OSError: disk gone"}
            # The rest of the payload is intact.
            assert "a" in stats["models"]
            assert "metrics" in stats

    def test_raising_provider_does_not_hide_later_sections(self):
        with ServingRuntime() as runtime:
            runtime.register("a", _KeyedForecaster(1.0))

            def broken():
                raise ValueError("nope")

            runtime.add_stats_source("first", broken)
            runtime.add_stats_source("second", lambda: {"ok": True})
            stats = runtime.stats()
            assert stats["first"] == {"error": "ValueError: nope"}
            assert stats["second"] == {"ok": True}
