"""Scaler roundtrips (incl. property-based) and window sampling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.data import (
    StandardScaler,
    WindowSpec,
    iterate_batches,
    window_starts,
)
from repro.data.windows import check_window_starts, gather_windows


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


#: Views of a C-ordered array in other memory orders: the gather must
#: copy each into the layout ``np.stack`` gives it.
LAYOUTS = {
    "C": lambda a: a,
    "F": np.asfortranarray,
    "time-fastest": lambda a: np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 0, -1)), -1, 0),
    "reversed-columns": lambda a: a[..., ::-1],
    "reversed-rows": lambda a: np.ascontiguousarray(a[::-1])[::-1],
    "strided": lambda a: np.repeat(a, 2, axis=-1)[..., ::2],
}


@st.composite
def windowed_values(draw):
    """``(values, starts, length)``: values of any memory order and 1-3
    dims, and unsorted, possibly repeated starts of full windows."""
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=6))
    dtype = draw(st.sampled_from([np.float64, np.int32]))
    values = draw(hnp.arrays(dtype, shape, elements={"allow_nan": False} if dtype is np.float64 else None))
    values = LAYOUTS[draw(st.sampled_from(sorted(LAYOUTS)))](values)
    length = draw(st.integers(1, shape[0]))
    starts = draw(st.lists(st.integers(0, shape[0] - length), min_size=1, max_size=8))
    return values, starts, length


class TestGatherWindows:
    @settings(max_examples=300, deadline=None)
    @given(case=windowed_values())
    def test_equals_np_stack_of_slices(self, case):
        values, starts, length = case
        stacked = np.stack([values[s : s + length] for s in starts])
        gathered = gather_windows(values, np.array(starts), length)
        assert gathered.shape == stacked.shape
        assert gathered.strides == stacked.strides
        assert gathered.dtype == stacked.dtype
        assert gathered.tobytes() == stacked.tobytes()

    def test_no_starts_gather_no_windows(self):
        assert gather_windows(np.zeros((5, 3)), [], 2).shape == (0, 2, 3)

    @pytest.mark.parametrize("start", [-1, 4])
    def test_window_outside_values_is_refused(self, start):
        # A negative start would otherwise wrap round to the last rows.
        with pytest.raises(IndexError, match="runs outside 5 steps"):
            gather_windows(np.zeros((5, 3)), [0, start], 2)
