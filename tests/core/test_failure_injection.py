"""Failure injection: the forecaster must fail loudly on bad inputs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import STSMConfig, STSMForecaster
from repro.data import SpaceSplit, WindowSpec


@pytest.fixture(scope="module")
def traffic():
    from repro.data.synthetic import make_pems_bay

    return make_pems_bay(num_sensors=16, num_days=2, seed=51)


_FAST = STSMConfig(hidden_dim=8, num_blocks=1, gcn_depth=1, epochs=1,
                   patience=1, batch_size=8, window_stride=8, top_k=5)


class TestFitValidation:
    def test_training_period_too_short(self, traffic):
        from repro.data import space_split

        split = space_split(traffic.coords, "horizontal")
        model = STSMForecaster(_FAST)
        with pytest.raises(ValueError, match="window"):
            model.fit(traffic, split, WindowSpec(64, 64), np.arange(100))

    def test_too_few_observed(self, traffic):
        n = traffic.num_locations
        split = SpaceSplit(
            train=np.array([0]),
            validation=np.array([1]),
            test=np.arange(2, n),
            name="tiny-observed",
        )
        model = STSMForecaster(_FAST)
        with pytest.raises(ValueError, match="observed"):
            model.fit(traffic, split, WindowSpec(8, 8), np.arange(traffic.num_steps))

    def test_invalid_config_rejected_at_construction(self):
        with pytest.raises(ValueError):
            STSMForecaster(STSMConfig(mask_ratio=2.0))

    def test_road_mode_without_network(self):
        from repro.data import space_split
        from repro.data.synthetic import make_airq

        airq = make_airq(num_sensors=12, num_days=5, seed=1)
        split = space_split(airq.coords, "horizontal")
        model = STSMForecaster(_FAST.replace(distance_mode="road_all"))
        with pytest.raises(ValueError, match="road network"):
            model.fit(airq, split, WindowSpec(8, 8), np.arange(airq.num_steps))


class TestNumericalRobustness:
    def test_constant_values_train_without_nan(self, traffic):
        """Zero-variance data must not produce NaNs (scaler guards)."""
        from repro.data import space_split
        from repro.data.dataset import SpatioTemporalDataset

        flat = SpatioTemporalDataset(
            name="flat",
            values=np.full_like(traffic.values, 55.0),
            coords=traffic.coords,
            steps_per_day=traffic.steps_per_day,
            features=traffic.features,
            interval_minutes=traffic.interval_minutes,
        )
        split = space_split(flat.coords, "horizontal")
        model = STSMForecaster(_FAST)
        model.fit(flat, split, WindowSpec(8, 8), np.arange(flat.num_steps * 7 // 10))
        out = model.predict(np.array([flat.num_steps - 16]))
        assert np.all(np.isfinite(out))

    def test_duplicate_coordinates_handled(self, traffic):
        """Coincident sensors must not break IDW or adjacency kernels."""
        from repro.data import space_split
        from repro.data.dataset import SpatioTemporalDataset

        coords = traffic.coords.copy()
        coords[1] = coords[0]  # exact duplicate
        dup = SpatioTemporalDataset(
            name="dup",
            values=traffic.values,
            coords=coords,
            steps_per_day=traffic.steps_per_day,
            features=traffic.features,
            interval_minutes=traffic.interval_minutes,
        )
        split = space_split(dup.coords, "horizontal")
        model = STSMForecaster(_FAST)
        model.fit(dup, split, WindowSpec(8, 8), np.arange(dup.num_steps * 7 // 10))
        out = model.predict(np.array([dup.num_steps - 16]))
        assert np.all(np.isfinite(out))


def _with_values(dataset, values):
    from repro.data.dataset import SpatioTemporalDataset

    return SpatioTemporalDataset(
        name=dataset.name,
        values=values,
        coords=dataset.coords,
        steps_per_day=dataset.steps_per_day,
        features=dataset.features,
        interval_minutes=dataset.interval_minutes,
    )


class TestNonFiniteObservations:
    """A non-finite observed reading is refused, never trained into NaN.

    Before the check, 5% NaN in the observed readings of a 24-sensor,
    2-day, 1-epoch fit gave a loss history of ``[nan]``, all-NaN
    forecasts and no error.
    """

    @pytest.fixture(scope="class")
    def probe(self):
        from repro.data import space_split, temporal_split
        from repro.data.synthetic import make_pems_bay

        dataset = make_pems_bay(num_sensors=24, num_days=2, seed=5)
        split = space_split(dataset.coords, "horizontal")
        train_steps, _ = temporal_split(dataset.num_steps)
        return dataset, split, WindowSpec(8, 8), train_steps

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_observed_non_finite_history_raises_typed_error(self, probe, bad):
        from repro.core import NonFiniteObservationsError

        dataset, split, spec, train_steps = probe
        values = dataset.values.copy()
        observed = values[:, split.observed]
        observed[np.random.default_rng(0).random(observed.shape) < 0.05] = bad
        values[:, split.observed] = observed
        in_training = ~np.isfinite(values[train_steps][:, split.observed])
        first = int(split.observed[in_training.any(axis=0)][0])

        with pytest.raises(NonFiniteObservationsError) as caught:
            STSMForecaster(_FAST).fit(_with_values(dataset, values), split, spec, train_steps)
        assert isinstance(caught.value, ValueError)
        message = str(caught.value)
        assert f"{int(in_training.sum())} non-finite readings" in message
        assert f"first: sensor {first})" in message

    def test_non_finite_outside_training_steps_is_not_refused(self, probe):
        dataset, split, spec, train_steps = probe
        values = dataset.values.copy()
        values[train_steps[-1] + 1, split.observed[0]] = np.nan
        report = STSMForecaster(_FAST).fit(_with_values(dataset, values), split, spec, train_steps)
        assert np.isfinite(report.history).all()

    def test_nan_in_unobserved_columns_fits_and_predicts_bitwise(self, probe):
        dataset, split, spec, train_steps = probe
        values = dataset.values.copy()
        values[:, split.unobserved] = np.nan
        starts = np.array([0, 40, dataset.num_steps - spec.total])

        clean = STSMForecaster(_FAST)
        clean_report = clean.fit(dataset, split, spec, train_steps)
        masked = STSMForecaster(_FAST)
        masked_report = masked.fit(_with_values(dataset, values), split, spec, train_steps)

        assert np.array_equal(masked_report.history, clean_report.history)
        expected = clean.predict(starts)
        got = masked.predict(starts)
        assert np.isfinite(got).all()
        assert got.tobytes() == expected.tobytes()
