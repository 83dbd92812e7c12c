"""Missing-at-times masks and imputers (paper Fig. 1(a) setting)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import WindowSpec
from repro.data.missing import (
    FiniteInputCheck,
    NonFiniteObservationsError,
    apply_missing,
    block_missing_mask,
    check_finite_observations,
    impute_forward_fill,
    impute_linear,
    random_missing_mask,
)
from repro.data.windows import WindowStartError


@pytest.fixture
def rng():
    return np.random.default_rng(61)


class TestMasks:
    def test_random_mask_rate(self, rng):
        mask = random_missing_mask((1000, 10), 0.3, rng)
        assert mask.mean() == pytest.approx(0.3, abs=0.03)

    def test_zero_rate_empty(self, rng):
        assert not random_missing_mask((50, 4), 0.0, rng).any()

    def test_invalid_rate(self, rng):
        with pytest.raises(ValueError):
            random_missing_mask((10, 2), 1.0, rng)
        with pytest.raises(ValueError):
            block_missing_mask((10, 2), -0.1, rng)

    def test_block_mask_rate_approx(self, rng):
        mask = block_missing_mask((500, 8), 0.25, rng, mean_block=10)
        assert 0.1 < mask.mean() < 0.45

    def test_block_mask_is_blocky(self, rng):
        """Contiguous outages: masked cells cluster in time vs random."""
        shape = (400, 6)
        blocky = block_missing_mask(shape, 0.3, rng, mean_block=20)
        scattered = random_missing_mask(shape, 0.3, np.random.default_rng(62))

        def transitions(mask):
            return int((mask[1:] != mask[:-1]).sum())

        assert transitions(blocky) < transitions(scattered)

    def test_apply_missing(self, rng):
        values = np.ones((5, 3))
        mask = np.zeros((5, 3), dtype=bool)
        mask[0, 0] = True
        out = apply_missing(values, mask)
        assert np.isnan(out[0, 0])
        assert out[1, 1] == 1.0
        assert values[0, 0] == 1.0  # original untouched

    def test_apply_missing_shape_check(self):
        with pytest.raises(ValueError):
            apply_missing(np.ones((3, 2)), np.zeros((2, 2), dtype=bool))


class TestImputers:
    def test_forward_fill_carries_last(self):
        values = np.array([[1.0], [np.nan], [np.nan], [4.0]])
        out = impute_forward_fill(values)
        assert np.allclose(out.ravel(), [1.0, 1.0, 1.0, 4.0])

    def test_forward_fill_leading_gap(self):
        values = np.array([[np.nan], [2.0], [np.nan]])
        out = impute_forward_fill(values)
        assert np.allclose(out.ravel(), [2.0, 2.0, 2.0])

    def test_forward_fill_all_missing_column(self):
        values = np.array([[np.nan, 3.0], [np.nan, 5.0]])
        out = impute_forward_fill(values)
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(4.0)  # global mean

    def test_linear_interpolates(self):
        values = np.array([[0.0], [np.nan], [np.nan], [3.0]])
        out = impute_linear(values)
        assert np.allclose(out.ravel(), [0.0, 1.0, 2.0, 3.0])

    def test_linear_extends_edges(self):
        values = np.array([[np.nan], [2.0], [np.nan]])
        out = impute_linear(values)
        assert np.allclose(out.ravel(), [2.0, 2.0, 2.0])

    def test_linear_recovers_smooth_signal_better_than_ffill(self, rng):
        t = np.linspace(0, 4 * np.pi, 200)
        truth = np.sin(t)[:, None] * np.ones((1, 3))
        mask = random_missing_mask(truth.shape, 0.4, rng)
        holey = apply_missing(truth, mask)
        linear_err = np.abs(impute_linear(holey) - truth).mean()
        ffill_err = np.abs(impute_forward_fill(holey) - truth).mean()
        assert linear_err < ffill_err

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=5, max_value=60), st.integers(min_value=0, max_value=500))
    def test_imputers_leave_observed_untouched(self, steps, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(steps, 3))
        mask = random_missing_mask(values.shape, 0.3, rng)
        holey = apply_missing(values, mask)
        for imputer in (impute_forward_fill, impute_linear):
            out = imputer(holey)
            assert np.all(np.isfinite(out))
            assert np.allclose(out[~mask], values[~mask])


class TestFiniteObservations:
    def test_finite_history_passes(self):
        check_finite_observations(np.ones((5, 3)), np.array([2, 4, 7]))

    def test_message_names_count_where_and_first_observed_sensor(self):
        values = np.ones((5, 3))
        values[1, 1] = np.nan
        values[3, 2] = np.inf
        values[4, 1] = -np.inf
        with pytest.raises(NonFiniteObservationsError) as caught:
            check_finite_observations(values, np.array([2, 4, 7]), where="test span")
        message = str(caught.value)
        assert "3 non-finite readings in the test span of 2 observed sensors" in message
        assert "first: sensor 4" in message
        assert isinstance(caught.value, ValueError)


class TestFiniteInputCheck:
    SPEC = WindowSpec(input_length=3, horizon=2)

    @pytest.fixture
    def check(self):
        values = np.arange(40.0).reshape(10, 4)
        values[5, 1] = np.nan  # observed sensor
        values[:, 3] = np.nan  # unobserved sensor: never read
        return FiniteInputCheck(values, np.array([0, 1, 2]), self.SPEC)

    def test_windows_clear_of_the_gap_pass(self, check):
        check.check([0, 1, 2, 6, 7])

    @pytest.mark.parametrize("start", [3, 4, 5])
    def test_every_window_covering_the_gap_is_refused(self, check, start):
        with pytest.raises(NonFiniteObservationsError, match=f"input window at start {start}"):
            check.check([0, start])

    def test_first_bad_start_is_named(self, check):
        with pytest.raises(NonFiniteObservationsError, match="start 4"):
            check.check([7, 4, 3])

    @pytest.mark.parametrize("start", [-1, 8])
    def test_out_of_range_start_is_a_window_start_error(self, check, start):
        with pytest.raises(WindowStartError, match=f"window start {start} "):
            check.check([0, start])
