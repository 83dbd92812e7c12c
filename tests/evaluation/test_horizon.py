"""Per-horizon error profiles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import HistoricalAverageForecaster, NearestObservedForecaster
from repro.data import temporal_split
from repro.evaluation import (
    forecast_window_starts,
    horizon_profile,
    stack_truth,
)


@pytest.fixture()
def fitted_naive(tiny_traffic, tiny_split, tiny_spec):
    model = HistoricalAverageForecaster()
    train_ix, _ = temporal_split(tiny_traffic.num_steps)
    model.fit(tiny_traffic, tiny_split, tiny_spec, train_ix)
    return model


class TestStackTruth:
    def test_shape_and_content(self, tiny_traffic, tiny_split, tiny_spec):
        starts = forecast_window_starts(tiny_traffic, tiny_spec, max_windows=3)
        truth = stack_truth(tiny_traffic, tiny_split, tiny_spec, starts)
        assert truth.shape == (3, tiny_spec.horizon, len(tiny_split.unobserved))
        s = int(starts[0])
        expected = tiny_traffic.values[
            s + tiny_spec.input_length : s + tiny_spec.total
        ][:, tiny_split.unobserved]
        assert np.allclose(truth[0], expected)


class TestHorizonProfile:
    def test_length_matches_horizon(self, fitted_naive, tiny_traffic, tiny_split, tiny_spec):
        starts = forecast_window_starts(tiny_traffic, tiny_spec, max_windows=4)
        profile = horizon_profile(fitted_naive, tiny_traffic, tiny_split, tiny_spec, starts)
        assert len(profile) == tiny_spec.horizon
        assert all(m.rmse > 0 for m in profile)

    def test_persistence_error_grows_with_lead(self, tiny_traffic, tiny_split, tiny_spec):
        model = NearestObservedForecaster()
        train_ix, _ = temporal_split(tiny_traffic.num_steps)
        model.fit(tiny_traffic, tiny_split, tiny_spec, train_ix)
        starts = forecast_window_starts(tiny_traffic, tiny_spec, max_windows=8)
        profile = horizon_profile(model, tiny_traffic, tiny_split, tiny_spec, starts)
        # Persistence degrades with lead time on diurnal data: the last
        # step should be clearly worse than the first.
        assert profile[-1].rmse > profile[0].rmse * 0.9

