"""DTW correctness and properties."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.temporal import (
    daily_profile,
    downsample_profile,
    dtw_distance,
    dtw_distance_matrix,
)
from repro.temporal.dtw import _dtw_batch, _dtw_batch_chunked


class TestDTWDistance:
    def test_identical_series_zero(self):
        a = np.array([1.0, 2.0, 3.0])
        assert dtw_distance(a, a) == 0.0

    def test_known_value(self):
        # Optimal alignment of [0,0,1] vs [0,1,1] warps around the step.
        assert dtw_distance([0.0, 0.0, 1.0], [0.0, 1.0, 1.0]) == pytest.approx(0.0)

    def test_constant_offset(self):
        a = np.zeros(4)
        b = np.ones(4)
        assert dtw_distance(a, b) == pytest.approx(4.0)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=6), rng.normal(size=6)
        assert dtw_distance(a, b) == pytest.approx(dtw_distance(b, a))

    def test_shift_invariance_beats_euclidean(self):
        # DTW should align a shifted copy nearly perfectly.
        t = np.linspace(0, 2 * np.pi, 40)
        a = np.sin(t)
        b = np.roll(a, 3)
        assert dtw_distance(a, b) < np.abs(a - b).sum()

    def test_different_lengths(self):
        assert dtw_distance([0.0, 1.0], [0.0, 0.5, 1.0]) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dtw_distance(np.array([]), np.array([1.0]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=2, max_value=12))
    def test_non_negative_and_symmetric(self, n, m):
        rng = np.random.default_rng(n * 100 + m)
        a, b = rng.normal(size=n), rng.normal(size=m)
        d = dtw_distance(a, b)
        assert d >= 0
        assert d == pytest.approx(dtw_distance(b, a))


class TestDTWMatrix:
    def test_matches_scalar_implementation(self):
        rng = np.random.default_rng(1)
        series = rng.normal(size=(5, 8))
        matrix = dtw_distance_matrix(series)
        for i in range(5):
            for j in range(5):
                assert matrix[i, j] == pytest.approx(dtw_distance(series[i], series[j]))

    def test_cross_matrix_matches(self):
        rng = np.random.default_rng(2)
        left = rng.normal(size=(3, 6))
        right = rng.normal(size=(4, 6))
        matrix = dtw_distance_matrix(left, right)
        assert matrix.shape == (3, 4)
        assert matrix[1, 2] == pytest.approx(dtw_distance(left[1], right[2]))

    def test_single_series(self):
        assert dtw_distance_matrix(np.ones((1, 5))).shape == (1, 1)


class TestPairChunking:
    """chunk_pairs bounds memory without changing a single bit."""

    def test_chunked_self_matrix_bitwise_equal(self):
        rng = np.random.default_rng(11)
        series = rng.normal(size=(9, 12))
        pair_i, pair_j = np.triu_indices(9, k=1)  # 36 self pairs
        full = _dtw_batch(series[pair_i], series[pair_j])
        for chunk in (1, 5, 36, 1000):
            chunked = _dtw_batch_chunked(series, series, pair_i, pair_j, chunk)
            np.testing.assert_array_equal(chunked, full)

    def test_chunked_cross_matrix_bitwise_equal(self):
        rng = np.random.default_rng(12)
        left = rng.normal(size=(5, 10))
        right = rng.normal(size=(7, 10))
        grid_i, grid_j = np.meshgrid(np.arange(5), np.arange(7), indexing="ij")
        pair_i, pair_j = grid_i.ravel(), grid_j.ravel()  # 35 cross pairs
        full = _dtw_batch(left[pair_i], right[pair_j])
        for chunk in (1, 8, 35):
            chunked = _dtw_batch_chunked(left, right, pair_i, pair_j, chunk)
            np.testing.assert_array_equal(chunked, full)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 6),
        m=st.integers(1, 6),
        length=st.integers(1, 8),
        chunk=st.integers(1, 40),
        seed=st.integers(0, 2**16),
    )
    def test_any_chunk_and_pair_order_bitwise_equal(self, n, m, length, chunk, seed):
        # Pairs in any order, repeats included, as the pair cache gathers
        # only its misses.
        rng = np.random.default_rng(seed)
        left, right = rng.normal(size=(n, length)), rng.normal(size=(m, length))
        count = int(rng.integers(1, 2 * n * m + 1))
        pair_i, pair_j = rng.integers(0, n, count), rng.integers(0, m, count)
        full = _dtw_batch(left[pair_i], right[pair_j])
        chunked = _dtw_batch_chunked(left, right, pair_i, pair_j, chunk)
        assert chunked.tobytes() == full.tobytes()

    def test_default_chunk_is_bounded(self):
        from repro.temporal.dtw import DEFAULT_CHUNK_PAIRS

        assert 0 < DEFAULT_CHUNK_PAIRS <= 1 << 16


class TestProfiles:
    def test_daily_profile_shape(self):
        values = np.arange(48, dtype=float).reshape(12, 4)
        out = daily_profile(values, steps_per_day=4)
        assert out.shape == (4, 4)

    def test_daily_profile_averages_days(self):
        # Two days, two steps/day, one sensor: [1, 2], [3, 4] -> mean [2, 3].
        values = np.array([[1.0], [2.0], [3.0], [4.0]])
        out = daily_profile(values, steps_per_day=2)
        assert np.allclose(out, [[2.0, 3.0]])

    def test_partial_day_padded(self):
        values = np.array([[1.0], [2.0]])
        out = daily_profile(values, steps_per_day=4)
        assert out.shape == (1, 4)
        assert np.allclose(out[0, :2], [1.0, 2.0])

    def test_invalid_steps_rejected(self):
        with pytest.raises(ValueError):
            daily_profile(np.ones((4, 2)), steps_per_day=0)

    def test_downsample_means(self):
        profiles = np.arange(8, dtype=float)[None, :]
        out = downsample_profile(profiles, 4)
        assert np.allclose(out, [[0.5, 2.5, 4.5, 6.5]])

    def test_downsample_noop_when_coarser(self):
        profiles = np.ones((2, 4))
        assert downsample_profile(profiles, 10).shape == (2, 4)

    def test_downsample_preserves_global_mean(self):
        rng = np.random.default_rng(4)
        profiles = rng.normal(size=(3, 24))
        out = downsample_profile(profiles, 6)
        assert np.allclose(out.mean(axis=1), profiles.mean(axis=1), atol=1e-9)

    def test_downsample_invalid_resolution(self):
        with pytest.raises(ValueError):
            downsample_profile(np.ones((1, 8)), 0)
