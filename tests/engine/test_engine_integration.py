"""End-to-end engine guarantees on the real forecasters.

The refactor onto the shared Trainer must keep fixed-seed training
bit-deterministic, and the engine caches must be invisible in the
numbers (content-addressed, bit-exact).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import STSMConfig, STSMForecaster
from repro.data import WindowSpec, space_split, temporal_split
from repro.data.synthetic import make_pems_bay
from repro.engine import StoreConfig, open_store, reset_store
from repro.evaluation import forecast_window_starts

_FAST = dict(
    hidden_dim=8,
    num_blocks=1,
    tcn_levels=2,
    gcn_depth=1,
    epochs=3,
    patience=3,
    batch_size=8,
    window_stride=8,
    top_k=5,
)


@pytest.fixture(scope="module")
def setting():
    dataset = make_pems_bay(num_sensors=18, num_days=3, seed=21)
    split = space_split(dataset.coords, "horizontal")
    spec = WindowSpec(input_length=6, horizon=6)
    train_ix, _ = temporal_split(dataset.num_steps)
    return dataset, split, spec, train_ix


def _fit(setting, **overrides):
    dataset, split, spec, train_ix = setting
    model = STSMForecaster(STSMConfig(**{**_FAST, **overrides}))
    report = model.fit(dataset, split, spec, train_ix)
    return model, report


class TestBitDeterminism:
    def test_fixed_seed_fit_is_bit_identical(self, setting):
        dataset, _split, spec, _train_ix = setting
        starts = forecast_window_starts(dataset, spec, max_windows=4)
        model_a, report_a = _fit(setting)
        model_b, report_b = _fit(setting)
        assert report_a.history == report_b.history
        state_a, state_b = model_a.network.state_dict(), model_b.network.state_dict()
        for name in state_a:
            assert np.array_equal(state_a[name], state_b[name]), name
        assert np.array_equal(model_a.predict(starts), model_b.predict(starts))

    def test_engine_caches_populated_during_fit(self, setting):
        model, report = _fit(setting)
        assert report.epochs == _FAST["epochs"]
        # Every epoch resolves its masked view through the caches.
        mask_stats = model._mask_cache.stats
        assert mask_stats["hits"] + mask_stats["misses"] == _FAST["epochs"]
        assert model._dtw_cache.stats["misses"] > 0

    def test_cache_store_false_isolates_from_open_store(self, setting):
        shared = open_store(StoreConfig())
        try:
            model, _report = _fit(setting, cache_store=False)
        finally:
            reset_store()
        assert model._mask_cache._store is not shared
        assert model._dtw_cache._cache._store is not shared
        assert shared.stats["namespaces"] == {}  # nothing leaked into it
        assert model._dtw_cache.stats["misses"] > 0
