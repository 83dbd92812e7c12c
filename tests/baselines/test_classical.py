"""Classical baselines: GP kriging and graph-regularised completion."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    GPKrigingForecaster,
    MatrixCompletionForecaster,
    als_graph_completion,
    gaussian_covariance,
    graph_laplacian,
    loo_lengthscale_search,
    ordinary_kriging_weights,
)
from repro.data import temporal_split
from repro.evaluation import evaluate_forecaster, forecast_window_starts
from repro.graph import euclidean_distance_matrix


class TestGaussianCovariance:
    def test_diagonal_carries_nugget(self):
        distances = euclidean_distance_matrix(np.array([[0.0, 0.0], [3.0, 4.0]]))
        cov = gaussian_covariance(distances, lengthscale=5.0, nugget=0.1)
        assert np.allclose(np.diag(cov), 1.1)

    def test_decreases_with_distance(self):
        distances = np.array([[0.0, 1.0, 10.0], [1.0, 0.0, 9.0], [10.0, 9.0, 0.0]])
        cov = gaussian_covariance(distances, lengthscale=3.0)
        assert cov[0, 1] > cov[0, 2]

    def test_rectangular_block_gets_no_nugget(self):
        distances = np.zeros((2, 3))
        cov = gaussian_covariance(distances, lengthscale=1.0, nugget=0.5)
        assert np.allclose(cov, 1.0)

    def test_rejects_bad_lengthscale(self):
        with pytest.raises(ValueError, match="lengthscale"):
            gaussian_covariance(np.zeros((2, 2)), lengthscale=0.0)


class TestOrdinaryKrigingWeights:
    def _setup(self, coords_o, coords_u, lengthscale=10.0, nugget=1e-3):
        all_coords = np.vstack([coords_o, coords_u])
        distances = euclidean_distance_matrix(all_coords)
        n_o = len(coords_o)
        cov_oo = gaussian_covariance(distances[:n_o, :n_o], lengthscale, nugget)
        cov_uo = gaussian_covariance(distances[n_o:, :n_o], lengthscale)
        return ordinary_kriging_weights(cov_oo, cov_uo)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(0)
        weights, _ = self._setup(rng.uniform(0, 100, (8, 2)), rng.uniform(0, 100, (3, 2)))
        assert np.allclose(weights.sum(axis=1), 1.0)

    def test_constant_field_reproduced_exactly(self):
        """Unbiasedness: a constant field is predicted without error."""
        rng = np.random.default_rng(1)
        weights, _ = self._setup(rng.uniform(0, 50, (6, 2)), rng.uniform(0, 50, (4, 2)))
        constant = np.full(6, 7.5)
        assert np.allclose(weights @ constant, 7.5)

    def test_target_on_sensor_concentrates_weight(self):
        coords_o = np.array([[0.0, 0.0], [50.0, 0.0], [0.0, 50.0], [50.0, 50.0]])
        coords_u = coords_o[:1]  # coincides with sensor 0
        weights, variance = self._setup(coords_o, coords_u, lengthscale=20.0)
        assert weights[0, 0] > 0.9
        assert variance[0] < 0.05

    def test_variance_grows_with_distance(self):
        coords_o = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        near = np.array([[1.0, 1.0]])
        far = np.array([[200.0, 200.0]])
        _, var_near = self._setup(coords_o, near, lengthscale=15.0)
        _, var_far = self._setup(coords_o, far, lengthscale=15.0)
        assert var_far[0] > var_near[0]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_weight_rows_always_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        n_o = int(rng.integers(3, 10))
        n_u = int(rng.integers(1, 5))
        weights, variance = self._setup(
            rng.uniform(0, 100, (n_o, 2)),
            rng.uniform(0, 100, (n_u, 2)),
            lengthscale=float(rng.uniform(5.0, 80.0)),
            nugget=1e-2,
        )
        assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(variance >= 0.0)


class TestLengthscaleSearch:
    def test_picks_smooth_scale_for_smooth_field(self):
        rng = np.random.default_rng(2)
        coords = rng.uniform(0, 100, (12, 2))
        # A very smooth field: linear in the coordinates.
        rows = np.stack([coords @ w for w in rng.normal(size=(6, 2))])
        rows = (rows - rows.mean()) / rows.std()
        chosen = loo_lengthscale_search(coords, rows, np.array([2.0, 80.0]))
        assert chosen == 80.0

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="candidate"):
            loo_lengthscale_search(np.zeros((3, 2)), np.zeros((2, 3)), np.array([]))


class TestGPKrigingForecaster:
    def test_fit_predict_shapes(self, tiny_traffic, tiny_split, tiny_spec):
        model = GPKrigingForecaster()
        train_ix, _ = temporal_split(tiny_traffic.num_steps)
        report = model.fit(tiny_traffic, tiny_split, tiny_spec, train_ix)
        assert report.train_seconds > 0
        assert report.extra["lengthscale"] > 0
        starts = forecast_window_starts(tiny_traffic, tiny_spec, max_windows=4)
        out = model.predict(starts)
        assert out.shape == (len(starts), tiny_spec.horizon, len(tiny_split.unobserved))
        assert np.all(np.isfinite(out))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="before fit"):
            GPKrigingForecaster().predict(np.array([0]))

    def test_rejects_bad_level_decay(self):
        with pytest.raises(ValueError, match="level_decay"):
            GPKrigingForecaster(level_decay=1.5)

    def test_variance_output(self, tiny_traffic, tiny_split, tiny_spec):
        model = GPKrigingForecaster()
        train_ix, _ = temporal_split(tiny_traffic.num_steps)
        model.fit(tiny_traffic, tiny_split, tiny_spec, train_ix)
        _, variance = model.predict_with_variance(np.array([0]))
        assert variance.shape == (len(tiny_split.unobserved),)
        assert np.all(variance >= 0)

    def test_error_in_sane_band(self, tiny_traffic, tiny_split, tiny_spec):
        result = evaluate_forecaster(
            GPKrigingForecaster(), tiny_traffic, tiny_split, tiny_spec, max_test_windows=8
        )
        assert 0 < result.metrics.rmse < tiny_traffic.values.std() * 5

    def test_predictions_follow_time_of_day(self, tiny_traffic, tiny_split, tiny_spec):
        model = GPKrigingForecaster(level_decay=0.0)
        train_ix, _ = temporal_split(tiny_traffic.num_steps)
        model.fit(tiny_traffic, tiny_split, tiny_spec, train_ix)
        spd = tiny_traffic.steps_per_day
        night = model.predict(np.array([0]))
        rush = model.predict(np.array([spd // 3]))
        assert not np.allclose(night, rush)


class TestGraphLaplacian:
    def test_rows_sum_to_zero(self):
        adjacency = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=float)
        laplacian = graph_laplacian(adjacency)
        assert np.allclose(laplacian.sum(axis=1), 0.0)

    def test_self_loops_dropped(self):
        adjacency = np.eye(3) + np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
        laplacian = graph_laplacian(adjacency)
        assert laplacian[2, 2] == 0.0  # isolated node, only a self-loop

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(3)
        raw = rng.random((6, 6)) < 0.4
        adjacency = np.triu(raw, 1).astype(float)
        adjacency = adjacency + adjacency.T
        eigenvalues = np.linalg.eigvalsh(graph_laplacian(adjacency))
        assert eigenvalues.min() > -1e-9


class TestALSCompletion:
    def _low_rank(self, seed=0, num_steps=60, num_locations=12, rank=2):
        rng = np.random.default_rng(seed)
        coords = rng.uniform(0, 100, (num_locations, 2))
        # Location factors vary smoothly in space so the Laplacian helps.
        factors_v = np.stack(
            [np.sin(coords[:, 0] / 40.0), np.cos(coords[:, 1] / 40.0)], axis=1
        )[:, :rank]
        factors_u = rng.normal(size=(num_steps, rank))
        values = factors_u @ factors_v.T
        distances = euclidean_distance_matrix(coords)
        sigma = distances.std()
        adjacency = (np.exp(-(distances ** 2) / sigma ** 2) > 0.5).astype(float)
        np.fill_diagonal(adjacency, 0.0)
        return values, adjacency

    def test_fully_observed_reconstruction(self):
        values, adjacency = self._low_rank()
        mask = np.ones_like(values, dtype=bool)
        u, v, history = als_graph_completion(
            values, mask, graph_laplacian(adjacency), rank=4,
            ridge=1e-3, graph_weight=0.0, iterations=25,
        )
        rmse = np.sqrt(((values - u @ v.T) ** 2).mean())
        assert rmse < 0.05 * values.std()
        assert history[-1] <= history[0] * 1.1 + 1e-9  # non-divergent

    def test_graph_term_helps_unobserved_columns(self):
        values, adjacency = self._low_rank(seed=5)
        mask = np.ones_like(values, dtype=bool)
        hidden = np.array([2, 7, 9])
        mask[:, hidden] = False
        laplacian = graph_laplacian(adjacency)

        def column_rmse(graph_weight):
            u, v, _ = als_graph_completion(
                values, mask, laplacian, rank=2, ridge=1e-2,
                graph_weight=graph_weight, iterations=30, seed=1,
            )
            return np.sqrt(((values[:, hidden] - (u @ v.T)[:, hidden]) ** 2).mean())

        assert column_rmse(graph_weight=3.0) < column_rmse(graph_weight=0.0)

    def test_rejects_bad_rank(self):
        values = np.zeros((4, 3))
        with pytest.raises(ValueError, match="rank"):
            als_graph_completion(
                values, np.ones_like(values, dtype=bool), np.zeros((3, 3)), rank=0
            )

    def test_rejects_mismatched_mask(self):
        with pytest.raises(ValueError, match="mask"):
            als_graph_completion(
                np.zeros((4, 3)), np.ones((4, 2), dtype=bool), np.zeros((3, 3)), rank=1
            )


class TestMatrixCompletionForecaster:
    def test_fit_predict_shapes(self, tiny_traffic, tiny_split, tiny_spec):
        model = MatrixCompletionForecaster(rank=4, iterations=8)
        train_ix, _ = temporal_split(tiny_traffic.num_steps)
        report = model.fit(tiny_traffic, tiny_split, tiny_spec, train_ix)
        assert report.epochs == 8
        starts = forecast_window_starts(tiny_traffic, tiny_spec, max_windows=4)
        out = model.predict(starts)
        assert out.shape == (len(starts), tiny_spec.horizon, len(tiny_split.unobserved))
        assert np.all(np.isfinite(out))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="before fit"):
            MatrixCompletionForecaster().predict(np.array([0]))

    def test_error_in_sane_band(self, tiny_traffic, tiny_split, tiny_spec):
        result = evaluate_forecaster(
            MatrixCompletionForecaster(rank=4, iterations=10),
            tiny_traffic, tiny_split, tiny_spec, max_test_windows=8,
        )
        assert 0 < result.metrics.rmse < tiny_traffic.values.std() * 5

    def test_ar_coefficients_bounded(self, tiny_traffic, tiny_split, tiny_spec):
        model = MatrixCompletionForecaster(rank=3, iterations=5, ar_weight=0.9)
        train_ix, _ = temporal_split(tiny_traffic.num_steps)
        model.fit(tiny_traffic, tiny_split, tiny_spec, train_ix)
        assert np.all(np.abs(model.phi) <= 0.9 + 1e-12)


class TestDeterminism:
    """Same seed → identical predictions (reproducible runs)."""

    def test_kriging_deterministic(self, tiny_traffic, tiny_split, tiny_spec):
        import numpy as np
        from repro.data import temporal_split

        train_ix, _ = temporal_split(tiny_traffic.num_steps)
        outputs = []
        for _ in range(2):
            model = GPKrigingForecaster(seed=11)
            model.fit(tiny_traffic, tiny_split, tiny_spec, train_ix)
            outputs.append(model.predict(np.array([0, 5])))
        assert np.array_equal(outputs[0], outputs[1])

    def test_completion_deterministic(self, tiny_traffic, tiny_split, tiny_spec):
        import numpy as np
        from repro.data import temporal_split

        train_ix, _ = temporal_split(tiny_traffic.num_steps)
        outputs = []
        for _ in range(2):
            model = MatrixCompletionForecaster(rank=3, iterations=4, seed=11)
            model.fit(tiny_traffic, tiny_split, tiny_spec, train_ix)
            outputs.append(model.predict(np.array([0, 5])))
        assert np.array_equal(outputs[0], outputs[1])
