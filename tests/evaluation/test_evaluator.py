"""Evaluation harness: windows in the test period, averaging, timing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import HistoricalAverageForecaster
from repro.data import space_split, temporal_split
from repro.evaluation import (
    average_metrics,
    evaluate_forecaster,
    forecast_window_starts,
)


class TestTestWindowStarts:
    def test_all_in_test_period(self, tiny_traffic, tiny_spec):
        starts = forecast_window_starts(tiny_traffic, tiny_spec)
        train_ix, test_ix = temporal_split(tiny_traffic.num_steps)
        assert starts.min() >= test_ix[0]
        assert starts.max() + tiny_spec.total <= tiny_traffic.num_steps

    def test_max_windows_cap(self, tiny_traffic, tiny_spec):
        starts = forecast_window_starts(tiny_traffic, tiny_spec, max_windows=5)
        assert len(starts) <= 5

    def test_cap_spreads_over_period(self, tiny_traffic, tiny_spec):
        starts = forecast_window_starts(tiny_traffic, tiny_spec, max_windows=4)
        full = forecast_window_starts(tiny_traffic, tiny_spec)
        assert starts[0] == full[0]
        assert starts[-1] >= full[-1] - tiny_spec.total


class TestEvaluateForecaster:
    def test_result_fields(self, tiny_traffic, tiny_split, tiny_spec):
        result = evaluate_forecaster(
            HistoricalAverageForecaster(), tiny_traffic, tiny_split, tiny_spec,
            max_test_windows=6,
        )
        assert result.model_name == "HistoricalAverage"
        assert result.dataset_name == tiny_traffic.name
        assert result.num_windows == 6
        assert result.test_seconds >= 0
        assert result.fit_report.train_seconds >= 0

    def test_shape_mismatch_detected(self, tiny_traffic, tiny_split, tiny_spec):
        class Broken(HistoricalAverageForecaster):
            name = "Broken"

            def predict(self, window_starts):
                return np.zeros((1, 1, 1))

        with pytest.raises(ValueError):
            evaluate_forecaster(Broken(), tiny_traffic, tiny_split, tiny_spec, max_test_windows=4)

    def test_invalid_split_detected(self, tiny_traffic, tiny_spec):
        from repro.data import SpaceSplit

        bad = SpaceSplit(np.array([0]), np.array([0]), np.array([1]), "bad")
        with pytest.raises(ValueError):
            evaluate_forecaster(HistoricalAverageForecaster(), tiny_traffic, bad, tiny_spec)


class TestAveraging:
    def test_average_metrics(self, tiny_traffic, tiny_spec):
        splits = [space_split(tiny_traffic.coords, k) for k in ("horizontal", "vertical")]
        results = [
            evaluate_forecaster(
                HistoricalAverageForecaster(), tiny_traffic, s, tiny_spec, max_test_windows=4
            )
            for s in splits
        ]
        mean = average_metrics(results)
        rmses = [r.metrics.rmse for r in results]
        assert mean.rmse == pytest.approx(np.mean(rmses))

    def test_average_empty_rejected(self):
        with pytest.raises(ValueError):
            average_metrics([])
