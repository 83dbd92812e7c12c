"""Metric definitions (paper §5.1.3) including property-based checks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.evaluation import Metrics, compute_metrics, mae, mape, r_squared, rmse
from repro.evaluation.metrics import MAPE_FLOOR


class TestPointMetrics:
    def test_perfect_prediction(self):
        truth = np.array([1.0, 2.0, 3.0])
        assert rmse(truth, truth) == 0.0
        assert mae(truth, truth) == 0.0
        assert mape(truth, truth) == 0.0
        assert r_squared(truth, truth) == 1.0

    def test_known_rmse_mae(self):
        pred = np.array([0.0, 0.0])
        truth = np.array([3.0, 4.0])
        assert rmse(pred, truth) == pytest.approx(np.sqrt(12.5))
        assert mae(pred, truth) == pytest.approx(3.5)

    def test_mape_fraction(self):
        pred = np.array([90.0])
        truth = np.array([100.0])
        assert mape(pred, truth) == pytest.approx(0.1)

    def test_mape_floor_guards_zero_truth(self):
        out = mape(np.array([1.0]), np.array([0.0]))
        assert np.isfinite(out)

    def test_r2_mean_predictor_is_zero(self):
        truth = np.array([1.0, 2.0, 3.0, 4.0])
        pred = np.full(4, truth.mean())
        assert r_squared(pred, truth) == pytest.approx(0.0)

    def test_r2_negative_for_bad_model(self):
        truth = np.array([1.0, 2.0, 3.0])
        pred = np.array([10.0, -10.0, 30.0])
        assert r_squared(pred, truth) < 0

    def test_r2_constant_truth(self):
        truth = np.ones(4)
        assert r_squared(np.ones(4), truth) == 1.0
        assert r_squared(np.zeros(4), truth) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rmse(np.zeros(3), np.zeros(4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mae(np.array([]), np.array([]))

    def test_multidimensional_flattened(self):
        pred = np.zeros((2, 3))
        truth = np.ones((2, 3))
        assert rmse(pred, truth) == pytest.approx(1.0)


class TestMetricsBundle:
    def test_compute_all(self):
        rng = np.random.default_rng(0)
        truth = rng.normal(50, 10, size=100)
        pred = truth + rng.normal(0, 1, size=100)
        metrics = compute_metrics(pred, truth)
        assert metrics.rmse < 2.0
        assert metrics.r2 > 0.9
        assert set(metrics.as_dict()) == {"RMSE", "MAE", "MAPE", "R2"}

    def test_str_format(self):
        metrics = Metrics(rmse=1.0, mae=0.5, mape=0.1, r2=0.9)
        text = str(metrics)
        assert "RMSE=1.000" in text and "R2=0.900" in text


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=100), st.integers(min_value=0, max_value=10_000))
@example(n=22, seed=8761)  # a truth within MAPE_FLOOR of zero before scaling
def test_metric_properties(n, seed):
    rng = np.random.default_rng(seed)
    truth = rng.normal(10, 3, size=n)
    pred = rng.normal(10, 3, size=n)
    assert rmse(pred, truth) >= mae(pred, truth) - 1e-12  # RMSE >= MAE always
    assert r_squared(truth, truth) == 1.0
    # Scaling both by a constant scales RMSE/MAE.  MAPE is scale invariant
    # only away from its floor, so assert the floored definition exactly.
    factor = 3.0
    assert rmse(pred * factor, truth * factor) == pytest.approx(factor * rmse(pred, truth))
    for p, t in ((pred, truth), (pred * factor, truth * factor)):
        floored = np.mean(np.abs(p - t) / np.maximum(np.abs(t), MAPE_FLOOR))
        assert mape(p, t) == float(floored)
