"""Scaler roundtrips (incl. property-based) and window sampling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    StandardScaler,
    WindowSpec,
    iterate_batches,
    window_starts,
)
from repro.data.windows import check_window_starts


class TestStandardScaler:
    def test_transforms_to_zero_mean_unit_std(self):
        rng = np.random.default_rng(0)
        data = rng.normal(50, 10, size=(100, 5))
        out = StandardScaler().fit(data).transform(data)
        assert abs(out.mean()) < 1e-9
        assert abs(out.std() - 1.0) < 1e-9

    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        data = rng.normal(5, 2, size=(20, 3))
        scaler = StandardScaler().fit(data)
        assert np.allclose(scaler.inverse_transform(scaler.transform(data)), data)

    def test_constant_data_does_not_divide_by_zero(self):
        scaler = StandardScaler().fit(np.full((10,), 7.0))
        out = scaler.transform(np.full((10,), 7.0))
        assert np.all(np.isfinite(out))

    def test_use_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.ones(3))

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError):
            StandardScaler().fit(np.array([]))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=50), st.integers(min_value=0, max_value=1000))
    def test_roundtrip_property(self, n, seed):
        data = np.random.default_rng(seed).normal(size=n) * 100
        scaler = StandardScaler().fit(data)
        assert np.allclose(scaler.inverse_transform(scaler.transform(data)), data, atol=1e-8)


class TestWindows:
    def test_spec_total(self):
        assert WindowSpec(12, 6).total == 18

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            WindowSpec(0, 5)
        with pytest.raises(ValueError):
            WindowSpec(5, -1)

    def test_window_starts_count(self):
        spec = WindowSpec(4, 2)
        starts = window_starts(10, spec)
        assert list(starts) == [0, 1, 2, 3, 4]

    def test_window_starts_stride(self):
        spec = WindowSpec(4, 2)
        assert list(window_starts(10, spec, stride=2)) == [0, 2, 4]

    def test_window_starts_too_short(self):
        assert len(window_starts(3, WindowSpec(4, 2))) == 0

    def test_check_window_starts_bounds(self):
        spec = WindowSpec(4, 2)
        check_window_starts([], 10, spec)
        check_window_starts(np.array([0, 6]), 10, spec)  # forecasts may run past the data
        for bad in (-1, 7, 9, float("nan"), 2**70):
            with pytest.raises(ValueError, match=r"outside the valid range \[0, 6\]"):
                check_window_starts([0, bad], 10, spec)

    def test_batches_cover_all(self):
        starts = np.arange(10)
        seen = np.concatenate(list(iterate_batches(starts, 3)))
        assert sorted(seen) == list(range(10))

    def test_batches_shuffled(self):
        starts = np.arange(100)
        batches = list(iterate_batches(starts, 100, rng=np.random.default_rng(0)))
        assert not np.array_equal(batches[0], starts)

    def test_drop_last(self):
        batches = list(iterate_batches(np.arange(10), 4, drop_last=True))
        assert all(len(b) == 4 for b in batches)
        assert len(batches) == 2

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            list(iterate_batches(np.arange(4), 0))
