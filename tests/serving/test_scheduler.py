"""MicroBatchScheduler: batching triggers, backpressure, lifecycle, parity."""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import IGNNKForecaster
from repro.data import WindowSpec, space_split, temporal_split
from repro.data.synthetic import make_pems_bay
from repro.evaluation import forecast_window_starts
from repro.interfaces import FitReport, Forecaster
from repro.serving import (
    InvalidRequest,
    MicroBatchScheduler,
    QueueFull,
)
from repro.serving.service import ForecastService


class _CountingForecaster(Forecaster):
    """Deterministic toy model that records every predict() batch."""

    name = "counting"

    def __init__(self, horizon: int = 4, num_unobserved: int = 3) -> None:
        self.horizon = horizon
        self.num_unobserved = num_unobserved
        self.calls: list[np.ndarray] = []
        self._lock = threading.Lock()

    def fit(self, dataset, split, spec, train_steps) -> FitReport:
        return FitReport()

    def predict(self, window_starts: np.ndarray) -> np.ndarray:
        window_starts = np.asarray(window_starts, dtype=int)
        with self._lock:
            self.calls.append(window_starts.copy())
        grid = np.arange(self.horizon)[:, None] + np.arange(self.num_unobserved)[None, :]
        return window_starts[:, None, None] * 1000.0 + grid[None]


class _GatedForecaster(_CountingForecaster):
    """Toy model whose first predict call blocks until released."""

    def __init__(self) -> None:
        super().__init__()
        self.entered = threading.Event()
        self.release = threading.Event()

    def predict(self, window_starts: np.ndarray) -> np.ndarray:
        self.entered.set()
        assert self.release.wait(timeout=10), "test forgot to release the gate"
        return super().predict(window_starts)


class _FaultyForecaster(_CountingForecaster):
    """Raises for one poisoned window start."""

    def predict(self, window_starts: np.ndarray) -> np.ndarray:
        if 13 in np.asarray(window_starts, dtype=int):
            raise RuntimeError("poisoned window")
        return super().predict(window_starts)


def _service_counts(scheduler: MicroBatchScheduler) -> dict:
    """The service's request counters, without the store view's probes."""
    return {k: v for k, v in scheduler.service.stats.items() if k != "cache"}


class TestIntake:
    def test_overflowing_start_rejected_without_failing_its_batch(self):
        """Regression: a start outside int64 used to be accepted and then
        fail every request of the micro-batch it joined."""
        model = _CountingForecaster()
        with MicroBatchScheduler(model) as scheduler:
            good = scheduler.submit(5)
            with pytest.raises(InvalidRequest, match="int64"):
                scheduler.submit(10**30)
            assert good.result(timeout=10)[0, 0] == pytest.approx(5000.0)
            assert scheduler.stats["failed"] == 0

    def test_overflowing_start_refuses_the_whole_call(self):
        model = _CountingForecaster()
        with MicroBatchScheduler(model) as scheduler:
            with pytest.raises(InvalidRequest, match="int64"):
                scheduler.submit_many([1, 2, -(10**30)])
            assert scheduler.stats["submitted"] == 0
        assert model.calls == []


class TestBatchingTriggers:
    def test_forecast_matches_direct_predict(self):
        model = _CountingForecaster()
        with MicroBatchScheduler(model) as scheduler:
            out = scheduler.forecast(np.array([5, 3, 5, 9]))
        expected = _CountingForecaster().predict(np.array([5, 3, 5, 9]))
        assert np.array_equal(out, expected)

    def test_max_batch_caps_batches(self):
        model = _CountingForecaster()
        with MicroBatchScheduler(model, max_batch=4, log_batches=True) as scheduler:
            handles = scheduler.submit_many([9, 4, 1, 3, 2, 8, 7, 6, 5, 0])
            results = [h.result(timeout=10) for h in handles]
            assert results[0][0, 0] == pytest.approx(9000.0)
            stats = scheduler.stats
        # One intake step queued all ten; each dispatch took at most four.
        assert [len(b) for b in scheduler.service.batch_log] == [4, 4, 2]
        assert stats["batches"] == 3
        assert stats["max_batch_observed"] == 4
        # Each predict call saw its dedup-sorted batch.
        assert model.calls[0].tolist() == [1, 3, 4, 9]

    def test_lone_request_on_idle_scheduler_is_one_batch(self):
        model = _CountingForecaster()
        with MicroBatchScheduler(model, max_batch=64) as scheduler:
            value = scheduler.submit(7).result(timeout=10)
            stats = scheduler.stats
        assert value[0, 0] == pytest.approx(7000.0)
        assert stats["batches"] == 1
        assert model.calls[0].tolist() == [7]

    def test_repeat_traffic_hits_cache(self):
        model = _CountingForecaster()
        with MicroBatchScheduler(model) as scheduler:
            scheduler.forecast(np.array([1, 2, 3]))
            scheduler.forecast(np.array([3, 2, 1]))
            stats = scheduler.stats
        assert stats["service"]["windows_computed"] == 3
        assert stats["service"]["cache_hits"] >= 3

    def test_direct_caller_shares_service_with_scheduler(self):
        """The service is locked: direct and worker forecast() calls coexist."""
        model = _CountingForecaster()
        service = ForecastService(model, cache_size=64)
        errors = []

        def direct_caller():
            try:
                for i in range(60):
                    out = service.forecast(np.array([i % 7]))
                    assert out[0, 0, 0] == pytest.approx((i % 7) * 1000.0)
            except BaseException as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        with MicroBatchScheduler(service) as scheduler:
            thread = threading.Thread(target=direct_caller)
            thread.start()
            for i in range(60):
                value = scheduler.submit(i % 5).result(timeout=10)
                assert value[0, 0] == pytest.approx((i % 5) * 1000.0)
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert not errors

    def test_wraps_existing_service(self):
        model = _CountingForecaster()
        service = ForecastService(model, cache_size=32)
        service.forecast(np.array([1, 2]))  # warm directly
        with MicroBatchScheduler(service) as scheduler:
            assert scheduler.service is service
            scheduler.forecast(np.array([1, 2]))
            stats = scheduler.stats
        # The scheduler served the warm windows from the shared cache.
        assert stats["service"]["cache_hits"] >= 2
        assert len(model.calls) == 1

    def test_existing_service_kwargs_coupling(self):
        service = ForecastService(_CountingForecaster(), cache_size=8)
        # cache_size cannot retarget an already-sized service cache.
        with pytest.raises(ValueError, match="cache_size"):
            MicroBatchScheduler(service, cache_size=16)
        # log_batches=True enables the parity log on the wrapped service.
        with MicroBatchScheduler(service, log_batches=True) as scheduler:
            scheduler.forecast(np.array([1, 2]))
        assert [b.tolist() for b in service.batch_log] == [[1, 2]]


class TestAdmissionControl:
    def test_reject_policy_raises_queue_full(self):
        model = _GatedForecaster()
        scheduler = MicroBatchScheduler(
            model, max_batch=1, max_queue=2, admission="reject"
        )
        try:
            first = scheduler.submit(1)  # worker takes it and blocks in predict
            assert model.entered.wait(timeout=10)
            queued = [scheduler.submit(2), scheduler.submit(3)]  # fills the queue
            with pytest.raises(QueueFull):
                scheduler.submit(4)
            assert scheduler.stats["rejected"] == 1
            model.release.set()
            assert first.result(timeout=10)[0, 0] == pytest.approx(1000.0)
            assert [h.result(timeout=10)[0, 0] for h in queued] == [2000.0, 3000.0]
        finally:
            model.release.set()
            scheduler.shutdown()

    def test_block_policy_applies_backpressure(self):
        model = _GatedForecaster()
        scheduler = MicroBatchScheduler(
            model, max_batch=1, max_queue=1, admission="block"
        )
        try:
            first = scheduler.submit(1)
            assert model.entered.wait(timeout=10)
            second = scheduler.submit(2)  # fills the queue
            third_handle = []

            def blocked_submit():
                third_handle.append(scheduler.submit(3))

            submitter = threading.Thread(target=blocked_submit)
            submitter.start()
            submitter.join(timeout=0.3)
            assert submitter.is_alive(), "submit should block while the queue is full"
            model.release.set()
            submitter.join(timeout=10)
            assert not submitter.is_alive()
            for handle, expected in ((first, 1000.0), (second, 2000.0), (third_handle[0], 3000.0)):
                assert handle.result(timeout=10)[0, 0] == pytest.approx(expected)
        finally:
            model.release.set()
            scheduler.shutdown()

    def test_reject_refuses_a_call_that_does_not_fit_whole(self):
        model = _GatedForecaster()
        scheduler = MicroBatchScheduler(
            model, max_batch=1, max_queue=3, admission="reject"
        )
        try:
            model.release.set()
            scheduler.service.forecast([9])  # cached, bypassing the scheduler
            model.release.clear()
            model.entered.clear()
            first = scheduler.submit(1)
            assert model.entered.wait(timeout=10)
            queued = scheduler.submit_many([2, 3])  # one slot left
            counts_before = _service_counts(scheduler)
            with pytest.raises(QueueFull):
                scheduler.submit_many([4, 5])
            with pytest.raises(QueueFull):
                scheduler.submit_many([9, 4, 5])  # a cached start is no exception
            stats = scheduler.stats
            assert stats["rejected"] == 5  # counted per refused start
            assert stats["submitted"] == 3
            assert stats["queue_depth"] == 2  # nothing of the refused calls
            assert _service_counts(scheduler) == counts_before
            model.release.set()
            assert [h.result(timeout=10)[0, 0] for h in [first, *queued]] == [
                1000.0, 2000.0, 3000.0,
            ]
        finally:
            model.release.set()
            scheduler.shutdown()

    def test_block_call_larger_than_the_queue_completes(self):
        model = _CountingForecaster()
        with MicroBatchScheduler(model, max_batch=2, max_queue=3,
                                 admission="block") as scheduler:
            out = scheduler.forecast(np.arange(10))
            stats = scheduler.stats
        assert np.array_equal(out, _CountingForecaster().predict(np.arange(10)))
        assert stats["submitted"] == stats["completed"] == 10
        assert stats["peak_queue_depth"] <= 3

    def test_invalid_parameters_rejected(self):
        model = _CountingForecaster()
        with pytest.raises(ValueError):
            MicroBatchScheduler(model, admission="drop")
        with pytest.raises(ValueError):
            MicroBatchScheduler(model, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatchScheduler(model, max_queue=0)

    def test_empty_forecast_rejected(self):
        with MicroBatchScheduler(_CountingForecaster()) as scheduler:
            with pytest.raises(ValueError):
                scheduler.forecast(np.array([], dtype=int))


class TestLifecycle:
    def test_shutdown_drains_queued_requests(self):
        model = _CountingForecaster()
        scheduler = MicroBatchScheduler(model)
        handles = [scheduler.submit(s) for s in range(6)]
        scheduler.shutdown()  # drain=True: everything queued is served
        assert all(h.done() for h in handles)
        assert handles[5].result()[0, 0] == pytest.approx(5000.0)
        with pytest.raises(RuntimeError):
            scheduler.submit(7)

    def test_shutdown_is_idempotent(self):
        scheduler = MicroBatchScheduler(_CountingForecaster())
        scheduler.shutdown()
        scheduler.shutdown()

    def test_shutdown_without_drain_fails_queued(self):
        model = _GatedForecaster()
        scheduler = MicroBatchScheduler(model, max_batch=1)
        in_flight = scheduler.submit(1)
        assert model.entered.wait(timeout=10)
        queued = scheduler.submit(2)
        scheduler.shutdown(drain=False, timeout=0.5)
        with pytest.raises(RuntimeError, match="shut down before serving"):
            queued.result(timeout=10)
        # The batch already being predicted still completes.
        model.release.set()
        assert in_flight.result(timeout=10)[0, 0] == pytest.approx(1000.0)

    @staticmethod
    def _blocked_call(model):
        """A scheduler whose worker is busy and whose one-slot queue holds
        the first start of a three-start call blocked on the rest."""
        scheduler = MicroBatchScheduler(model, max_batch=1, max_queue=1)
        first = scheduler.submit(0)
        assert model.entered.wait(timeout=10)
        handles = []
        caller = threading.Thread(
            target=lambda: handles.extend(scheduler.submit_many([1, 2, 3])),
            daemon=True,
        )
        caller.start()
        while scheduler.stats["submitted"] < 4:  # admitted, then blocked
            caller.join(timeout=0.01)
        return scheduler, first, caller, handles

    def test_shutdown_serves_a_blocked_call_rest(self):
        model = _GatedForecaster()
        scheduler, first, caller, handles = self._blocked_call(model)
        closer = threading.Thread(target=scheduler.shutdown, daemon=True)
        closer.start()
        while not scheduler._closed:  # intake closed mid-call
            closer.join(timeout=0.01)
        model.release.set()
        closer.join(timeout=10)
        caller.join(timeout=10)
        assert [h.result(timeout=10)[0, 0] for h in [first, *handles]] == [
            0.0, 1000.0, 2000.0, 3000.0,
        ]
        stats = scheduler.stats
        assert stats["submitted"] == stats["completed"] == 4

    def test_shutdown_without_drain_fails_a_blocked_call_rest(self):
        model = _GatedForecaster()
        scheduler, first, caller, handles = self._blocked_call(model)
        scheduler.shutdown(drain=False, timeout=0.5)
        caller.join(timeout=10)
        assert len(handles) == 3
        for handle in handles:
            with pytest.raises(RuntimeError, match="shut down before serving"):
                handle.result(timeout=10)
        model.release.set()
        assert first.result(timeout=10)[0, 0] == pytest.approx(0.0)
        assert scheduler.drain(timeout=10)
        stats = scheduler.stats
        assert (stats["completed"], stats["failed"]) == (1, 3)

    def test_drain_is_a_completion_barrier(self):
        model = _CountingForecaster()
        with MicroBatchScheduler(model) as scheduler:
            handles = [scheduler.submit(s) for s in range(8)]
            assert scheduler.drain(timeout=10)
            assert all(h.done() for h in handles)

    def test_predict_error_fails_batch_but_not_scheduler(self):
        model = _FaultyForecaster()
        with MicroBatchScheduler(model) as scheduler:
            poisoned = scheduler.submit(13)
            with pytest.raises(RuntimeError, match="poisoned"):
                poisoned.result(timeout=10)
            # Scheduler survives and serves later traffic.
            assert scheduler.submit(2).result(timeout=10)[0, 0] == pytest.approx(2000.0)
            stats = scheduler.stats
        assert stats["failed"] >= 1
        assert stats["completed"] >= 1


def _hammer(scheduler, starts, threads):
    """Submit ``threads`` seeded start sequences concurrently, one thread
    each; returns every (start, served block) pair."""
    sequences = [
        np.random.default_rng([3, t]).choice(starts, size=60)
        for t in range(threads)
    ]

    def serve(sequence):
        return [(int(s), scheduler.submit(int(s)).result()) for s in sequence]

    with ThreadPoolExecutor(threads) as pool:
        return [pair for served in pool.map(serve, sequences) for pair in served]


class TestConcurrentParity:
    def test_threaded_hammer_bitwise_parity_toy(self):
        """Many submitter threads, mixed hit/miss traffic, bitwise parity."""
        model = _CountingForecaster()
        reference = {
            s: _CountingForecaster().predict(np.asarray([s]))[0] for s in range(12)
        }
        with MicroBatchScheduler(model, max_batch=16) as scheduler:
            served = _hammer(scheduler, list(range(12)), threads=8)
            scheduler.drain()
            stats = scheduler.stats
        assert len(served) == 8 * 60
        for start, value in served:
            assert np.array_equal(value, reference[start])
        assert stats["completed"] == len(served)
        assert stats["service"]["cache_hits"] > 0  # mixed hit/miss traffic
        # Micro-batching actually happened: far fewer batches than requests.
        assert stats["batches"] < stats["completed"]

    def test_threaded_hammer_bitwise_parity_ignnk(self):
        """Real fitted model under concurrent load equals serial direct predict."""
        dataset = make_pems_bay(num_sensors=18, num_days=2, seed=11)
        split = space_split(dataset.coords, "horizontal")
        spec = WindowSpec(input_length=6, horizon=6)
        train_ix, _ = temporal_split(dataset.num_steps)
        model = IGNNKForecaster(iterations=5, hidden=8)
        model.fit(dataset, split, spec, train_ix)
        starts = forecast_window_starts(dataset, spec, max_windows=10)
        # IGNNK's predict is batch-composition invariant (asserted in
        # test_service), so serial per-window calls are the bitwise
        # reference for any batching the scheduler performs.
        reference = {int(s): model.predict(np.asarray([s]))[0] for s in starts}
        with MicroBatchScheduler(model) as scheduler:
            served = _hammer(scheduler, [int(s) for s in starts], threads=8)
        assert len(served) == 8 * 60
        for start, value in served:
            assert np.array_equal(value, reference[start])


class TestCacheFastPath:
    """Cache hits are served on the submitting thread."""

    def test_hit_skips_queue_and_predict(self):
        model = _CountingForecaster()
        with MicroBatchScheduler(model) as scheduler:
            cold = scheduler.submit(7).result()
            calls_after_cold = len(model.calls)
            handle = scheduler.submit(7)
            assert handle.done()  # resolved before any worker involvement
            hot = handle.result()
            assert np.array_equal(hot, cold)
            assert len(model.calls) == calls_after_cold  # no new predict
            stats = scheduler.stats
            assert stats["service"]["cache_hits"] == 1
            assert stats["completed"] == 2
            assert stats["submitted"] == 2
            assert stats["batches"] == 1

    def test_fast_hit_bypasses_admission_control(self):
        """A hit must be servable even while the queue is full."""
        model = _GatedForecaster()
        with MicroBatchScheduler(model, max_batch=1,
                                 max_queue=1, admission="reject") as scheduler:
            model.release.set()
            warm = scheduler.submit(3).result()  # cached now
            scheduler.drain()
            model.release.clear()
            model.entered.clear()
            in_flight = scheduler.submit(100)  # worker blocks in predict
            assert model.entered.wait(5.0)
            queued = scheduler.submit(101)  # fills the queue
            with pytest.raises(QueueFull):
                scheduler.submit(102)  # miss: rejected
            assert np.array_equal(scheduler.submit(3).result(), warm)  # hit: served
            model.release.set()
            in_flight.result(10.0)
            queued.result(10.0)

    def test_fast_hits_record_measured_latency(self):
        model = _CountingForecaster()
        with MicroBatchScheduler(model) as scheduler:
            scheduler.submit(7).result(timeout=10)
            before = scheduler.latency.summary()
            for _ in range(5):
                assert scheduler.submit(7).done()
            after = scheduler.latency.summary()
        assert after["count"] - before["count"] == 5
        mean_s = (after["sum"] - before["sum"]) / 5
        assert 0.0 < mean_s < 1.0

    def test_shutdown_refuses_fast_hits_too(self):
        model = _CountingForecaster()
        scheduler = MicroBatchScheduler(model)
        scheduler.submit(7).result()
        scheduler.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            scheduler.submit(7)

    def test_runtime_totals_fold_fast_hits(self):
        from repro.serving import ServingRuntime

        with ServingRuntime() as runtime:
            runtime.register("a", _CountingForecaster())
            for _ in range(3):
                runtime.forecast("a", np.array([5]))
            stats = runtime.stats()
            assert stats["totals"]["cache_hits"] == 2
            assert stats["totals"]["cache_hit_pct"] == pytest.approx(100 * 2 / 3)


class TestSubmitManyProperties:
    """Generated interleavings of multi-start calls from many threads."""

    @settings(max_examples=25, deadline=None)
    @given(
        calls=st.lists(
            st.lists(
                st.lists(st.integers(0, 30), min_size=1, max_size=12),
                min_size=1, max_size=4,
            ),
            min_size=2, max_size=4,
        ),
        max_queue=st.sampled_from([4, 64]),
    )
    def test_interleaved_calls_are_bitwise_direct_predict(self, calls, max_queue):
        reference = _CountingForecaster()
        errors: list[BaseException] = []
        with MicroBatchScheduler(
            _CountingForecaster(), max_batch=4, max_queue=max_queue,
            admission="block",
        ) as scheduler:

            def caller(thread_calls):
                try:
                    for starts in thread_calls:
                        handles = scheduler.submit_many(starts)
                        blocks = [h.result(timeout=10) for h in handles]
                        assert np.array_equal(
                            np.stack(blocks), reference.predict(np.asarray(starts))
                        )
                except BaseException as exc:  # noqa: BLE001 — surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=caller, args=(c,)) for c in calls]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert scheduler.drain(timeout=10)
            stats = scheduler.stats
        assert not errors, errors[:3]
        assert stats["submitted"] == stats["completed"] == sum(
            len(starts) for thread_calls in calls for starts in thread_calls
        )
        assert stats["failed"] == 0
        # Every served request is counted once by the service, whether it
        # was answered inline or through the queue.
        service = stats["service"]
        assert service["requests"] == stats["completed"]
        assert (service["cache_hits"] + service["coalesced"]
                + service["windows_computed"]) == service["requests"]

    @settings(max_examples=25, deadline=None)
    @given(starts=st.lists(st.integers(0, 10**6), min_size=1, max_size=8,
                           unique=True))
    def test_call_within_max_batch_is_one_batch(self, starts):
        with MicroBatchScheduler(_CountingForecaster(), max_batch=8,
                                 log_batches=True) as scheduler:
            for handle in scheduler.submit_many(starts):
                handle.result(timeout=10)
            log = [batch.tolist() for batch in scheduler.service.batch_log]
        assert log == [sorted(starts)]
