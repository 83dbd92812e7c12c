"""ForecastService: batching, caching, and bitwise parity with predict."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import GEGANForecaster, IGNNKForecaster
from repro.core import STSMConfig, STSMForecaster
from repro.data import WindowSpec, space_split, temporal_split
from repro.data.synthetic import make_pems_bay
from repro.evaluation import forecast_window_starts
from repro.interfaces import FitReport, Forecaster
from repro.serving import ForecastService


@pytest.fixture(scope="module")
def setting():
    dataset = make_pems_bay(num_sensors=18, num_days=3, seed=23)
    split = space_split(dataset.coords, "horizontal")
    spec = WindowSpec(input_length=6, horizon=6)
    train_ix, _ = temporal_split(dataset.num_steps)
    starts = forecast_window_starts(dataset, spec, max_windows=8)
    return dataset, split, spec, train_ix, starts


@pytest.fixture(scope="module")
def fitted_stsm(setting):
    dataset, split, spec, train_ix, _starts = setting
    cfg = STSMConfig(
        hidden_dim=8, num_blocks=1, tcn_levels=2, gcn_depth=1,
        epochs=2, patience=2, batch_size=8, window_stride=8, top_k=5,
    )
    model = STSMForecaster(cfg)
    model.fit(dataset, split, spec, train_ix)
    return model


class _CountingForecaster(Forecaster):
    """Deterministic toy model that records every predict() batch."""

    name = "counting"

    def __init__(self, horizon: int = 4, num_unobserved: int = 3) -> None:
        self.horizon = horizon
        self.num_unobserved = num_unobserved
        self.calls: list[np.ndarray] = []

    def fit(self, dataset, split, spec, train_steps) -> FitReport:
        return FitReport()

    def predict(self, window_starts: np.ndarray) -> np.ndarray:
        window_starts = np.asarray(window_starts, dtype=int)
        self.calls.append(window_starts.copy())
        grid = np.arange(self.horizon)[:, None] + np.arange(self.num_unobserved)[None, :]
        return window_starts[:, None, None] * 1000.0 + grid[None]


class TestBitwiseParity:
    def test_service_equals_direct_predict_stsm(self, fitted_stsm, setting):
        *_rest, starts = setting
        service = ForecastService(fitted_stsm)
        batched = service.forecast(starts)
        # Zero added drift: a cold-cache forecast over unique sorted
        # starts is bitwise the model's own batched predict call.
        assert np.array_equal(batched, fitted_stsm.predict(starts))
        # Cached repeats stay bitwise stable forever.
        assert np.array_equal(service.forecast(starts[::-1]), batched[::-1])
        # Per-window calls agree to the last ulp of the conv matmul's
        # batch-size-dependent BLAS path (a property of STSM's predict
        # itself, not of the service).
        sequential = np.concatenate(
            [fitted_stsm.predict(np.array([s])) for s in starts], axis=0
        )
        np.testing.assert_allclose(batched, sequential, rtol=0, atol=1e-12)

    def test_batched_equals_per_window_ignnk(self, setting):
        dataset, split, spec, train_ix, starts = setting
        model = IGNNKForecaster(iterations=5, hidden=8)
        model.fit(dataset, split, spec, train_ix)
        service = ForecastService(model)
        batched = service.forecast(starts)
        sequential = np.concatenate(
            [model.predict(np.array([s])) for s in starts], axis=0
        )
        assert np.array_equal(batched, sequential)

    def test_stateful_gegan_served_per_window(self, setting):
        dataset, split, spec, train_ix, starts = setting
        model = GEGANForecaster(iterations=5, hidden=16)
        model.fit(dataset, split, spec, train_ix)
        service = ForecastService(model)
        assert service.stateless_predict is False
        batched = service.forecast(starts)
        sequential = np.concatenate(
            [model.predict(np.array([s])) for s in starts], axis=0
        )
        assert np.array_equal(batched, sequential)
        # One predict call per distinct window, not one big batch.
        assert service.stats["predict_calls"] == len(starts)


class TestCoalescingAndCaching:
    def test_duplicates_coalesce_into_one_call(self):
        model = _CountingForecaster()
        service = ForecastService(model)
        starts = np.array([5, 3, 5, 3, 9, 5])
        out = service.forecast(starts)
        assert out.shape == (6, model.horizon, model.num_unobserved)
        assert len(model.calls) == 1
        assert model.calls[0].tolist() == [3, 5, 9]  # deduped, sorted
        # Request order preserved in the assembled output.
        assert np.array_equal(out[0], out[2]) and np.array_equal(out[0], out[5])
        assert out[0, 0, 0] == pytest.approx(5000.0)
        assert out[1, 0, 0] == pytest.approx(3000.0)

    def test_repeat_traffic_served_from_cache(self):
        model = _CountingForecaster()
        service = ForecastService(model)
        first = service.forecast(np.array([1, 2, 3]))
        second = service.forecast(np.array([3, 2, 1]))
        assert len(model.calls) == 1
        assert np.array_equal(first[::-1], second)
        assert service.stats["windows_computed"] == 3
        assert service.stats["requests"] == 6

    def test_max_batch_size_chunks(self):
        model = _CountingForecaster()
        service = ForecastService(model, max_batch_size=4)
        service.forecast(np.arange(10))
        assert [len(call) for call in model.calls] == [4, 4, 2]

    def test_tiny_cache_still_correct(self):
        model = _CountingForecaster()
        service = ForecastService(model, cache_size=2)
        out = service.forecast(np.arange(6))
        expected = model.predict(np.arange(6))
        assert np.array_equal(out, expected)

    def test_empty_request_rejected(self):
        model = _CountingForecaster()
        service = ForecastService(model)
        with pytest.raises(ValueError):
            service.forecast(np.array([], dtype=int))
        assert model.calls == [] and service.stats["requests"] == 0

    def test_hits_survive_evictions_by_their_own_call(self):
        """A hit is read once and kept: the call's own cache writes can
        evict it without forcing a recompute."""
        model = _CountingForecaster()
        service = ForecastService(model, cache_size=4)
        service.forecast(np.arange(4))
        model.calls.clear()
        starts = np.array([0, 1, 2, 3, 10, 11, 12, 13])
        out = service.forecast(starts)
        assert [c.tolist() for c in model.calls] == [[10, 11, 12, 13]]
        assert out.tobytes() == model.predict(starts).tobytes()

    def test_forecast_survives_adversarial_eviction(self):
        """Correct rows even if every put is evicted at once."""
        from repro.engine import ArtifactStore

        class _NeverStores(ArtifactStore):
            def put(self, namespace, key, value):
                pass  # adversarial store: evicts everything instantly

        model = _CountingForecaster()
        service = ForecastService(model, store=_NeverStores(), store_scope=b"m")
        starts = np.array([6, 2, 6])
        out = service.forecast(starts)
        assert [c.tolist() for c in model.calls] == [[2, 6]]
        assert out.tobytes() == model.predict(starts).tobytes()

    def test_shared_cache_between_services(self):
        """Two services over one (thread-safe) store and one scope share
        computed windows."""
        from repro.engine import ArtifactStore

        store = ArtifactStore()
        model_a = _CountingForecaster()
        model_b = _CountingForecaster()
        service_a = ForecastService(model_a, store=store, store_scope=b"shared")
        service_b = ForecastService(model_b, store=store, store_scope=b"shared")
        first = service_a.forecast(np.array([1, 2]))
        second = service_b.forecast(np.array([2, 1]))
        assert np.array_equal(first[::-1], second)
        assert model_a.calls and not model_b.calls  # b served from shared cache
        assert service_b.stats["cache_hits"] == 2

    def test_batch_log_records_predict_compositions(self):
        model = _CountingForecaster()
        service = ForecastService(model, max_batch_size=2, log_batches=True)
        service.forecast(np.array([3, 1, 2]))
        assert [b.tolist() for b in service.batch_log] == [[1, 2], [3]]
        assert ForecastService(model).batch_log is None  # off by default

    def test_unfitted_forecaster_rejected(self):
        model = IGNNKForecaster()
        with pytest.raises(RuntimeError):
            ForecastService(model)

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ValueError):
            ForecastService(_CountingForecaster(), max_batch_size=0)


@settings(max_examples=100, deadline=None)
@given(
    starts=st.lists(st.integers(0, 15), min_size=1, max_size=24),
    warm_len=st.integers(0, 24),
    cache_size=st.integers(1, 8),
    max_batch_size=st.integers(1, 8),
    stateless=st.booleans(),
)
def test_forecast_properties(starts, warm_len, cache_size, max_batch_size, stateless):
    """forecast() computes exactly the sorted unique misses, each once,
    in chunks of at most the batch bound, and serves the model's rows
    in request order — whatever the cache evicts along the way."""
    model = _CountingForecaster()
    service = ForecastService(
        model, cache_size=cache_size, max_batch_size=max_batch_size,
        stateless_predict=stateless,
    )
    if warm_len:
        service.forecast(starts[:warm_len])
    cached = {s for s in set(starts) if s in service._results}
    model.calls.clear()
    requests = service.stats["requests"]

    out = service.forecast(starts)

    batches = [c.tolist() for c in model.calls]
    computed = [s for batch in batches for s in batch]
    assert computed == sorted(set(starts) - cached)  # each miss once, sorted
    chunk = max_batch_size if stateless else 1
    assert all(1 <= len(batch) <= chunk for batch in batches)
    assert service.stats["requests"] - requests == len(starts)
    assert out.tobytes() == _CountingForecaster().predict(np.array(starts)).tobytes()


class TestStoreBackedService:
    def test_store_serves_across_service_instances(self, fitted_stsm, setting):
        """Two services over one store + same model content share blocks
        bitwise — the cross-process serving scenario, in miniature."""
        from repro.engine import ArtifactStore

        _dataset, _split, _spec, _train_ix, starts = setting
        store = ArtifactStore()
        first = ForecastService(fitted_stsm, store=store)
        blocks = first.forecast(starts)
        second = ForecastService(fitted_stsm, store=store)
        again = second.forecast(starts)
        assert again.tobytes() == blocks.tobytes()
        assert second.stats["windows_computed"] == 0  # everything came from the store
        assert second.stats["cache_hits"] == len(starts)

    def test_store_scopes_isolate_models(self):
        from repro.engine import ArtifactStore

        store = ArtifactStore()
        model_a = _CountingForecaster()
        model_b = _CountingForecaster(horizon=4, num_unobserved=3)
        service_a = ForecastService(model_a, store=store, store_scope=b"a")
        service_b = ForecastService(model_b, store=store, store_scope=b"b")
        service_a.forecast(np.array([1]))
        service_b.forecast(np.array([1]))
        assert model_a.calls and model_b.calls  # no cross-scope hit

    def test_store_without_derivable_scope_falls_back_to_private_store(self):
        """No content scope: the service caches privately, never in the
        shared store, where unscoped window keys could collide."""
        from repro.engine import ArtifactStore

        store = ArtifactStore()
        model = _CountingForecaster()
        service = ForecastService(model, cache_size=4, store=store)
        service.forecast(np.array([1, 2]))
        service.forecast(np.array([2, 1]))
        assert [c.tolist() for c in model.calls] == [[1, 2]]
        assert service.stats["cache_hits"] == 2
        assert "forecast_window" not in store.stats["namespaces"]
