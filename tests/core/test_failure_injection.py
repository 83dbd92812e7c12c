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

    @staticmethod
    def _with_nan_cells(dataset, split, rows, count):
        """``dataset`` with NaN in ``count`` distinct (row, observed sensor)
        cells drawn from ``rows``; also returns the first such sensor."""
        values = dataset.values.copy()
        cells = np.random.default_rng(1).choice(
            len(rows) * len(split.observed), size=count, replace=False
        )
        row, column = np.unravel_index(cells, (len(rows), len(split.observed)))
        values[np.asarray(rows)[row], split.observed[column]] = np.nan
        return _with_values(dataset, values), int(split.observed[column.min()])

    def test_predict_refuses_non_finite_outside_training_steps(self, probe, tmp_path):
        # The test graph reads every observed step: before the check this
        # fit's forecasts were all NaN, with no error.
        from repro.core import NonFiniteObservationsError, load_forecaster, save_forecaster

        dataset, split, spec, train_steps = probe
        test_rows = np.arange(train_steps[-1] + 1, dataset.num_steps)
        bad, first = self._with_nan_cells(dataset, split, test_rows, 20)
        model = STSMForecaster(_FAST)
        model.fit(bad, split, spec, train_steps)
        loaded = load_forecaster(save_forecaster(model, tmp_path / "model.npz"), bad, split)
        for forecaster in (model, loaded):
            with pytest.raises(NonFiniteObservationsError) as caught:
                forecaster.predict(np.array([0, 40]))
            assert "20 non-finite readings" in str(caught.value)
            assert f"first: sensor {first})" in str(caught.value)

    def test_ignnk_observed_non_finite_history_raises_typed_error(self, probe):
        # Before the check this fit's loss and forecasts were all NaN.
        from repro.baselines import IGNNKForecaster
        from repro.core import NonFiniteObservationsError

        dataset, split, spec, train_steps = probe
        bad, first = self._with_nan_cells(dataset, split, train_steps, 30)
        with pytest.raises(NonFiniteObservationsError) as caught:
            IGNNKForecaster(iterations=5, hidden=8, seed=0).fit(bad, split, spec, train_steps)
        assert "30 non-finite readings in the training history" in str(caught.value)
        assert f"first: sensor {first})" in str(caught.value)

    @staticmethod
    def _baseline(name):
        from repro import baselines

        return {
            "INCREASE": lambda: baselines.INCREASEForecaster(iterations=2, hidden=8),
            "GE-GAN": lambda: baselines.GEGANForecaster(iterations=5, hidden=8),
            "MatrixCompletion": lambda: baselines.MatrixCompletionForecaster(iterations=3),
            "GP-Kriging": baselines.GPKrigingForecaster,
            "HistoricalAverage": baselines.HistoricalAverageForecaster,
            "IGNNK": lambda: baselines.IGNNKForecaster(iterations=5, hidden=8),
            "IDWPersistence": baselines.IDWPersistenceForecaster,
            "NearestObserved": baselines.NearestObservedForecaster,
        }[name]()

    _BASELINES = ["INCREASE", "GE-GAN", "MatrixCompletion", "GP-Kriging", "HistoricalAverage"]

    @pytest.mark.parametrize("name", _BASELINES)
    def test_baseline_observed_non_finite_history_raises_typed_error(self, probe, name):
        # Before the check the first three forecast all NaN and the last
        # two 21% NaN, each with no error.
        from repro.core import NonFiniteObservationsError

        dataset, split, spec, train_steps = probe
        bad, first = self._with_nan_cells(dataset, split, train_steps, 30)
        with pytest.raises(NonFiniteObservationsError) as caught:
            self._baseline(name).fit(bad, split, spec, train_steps)
        assert "30 non-finite readings in the training history" in str(caught.value)
        assert f"first: sensor {first})" in str(caught.value)

    @pytest.mark.parametrize("name", _BASELINES)
    def test_baseline_nan_in_unobserved_columns_fits_and_predicts_bitwise(self, probe, name):
        dataset, split, spec, train_steps = probe
        values = dataset.values.copy()
        values[:, split.unobserved] = np.nan
        starts = np.array([0, 40, dataset.num_steps - spec.total])
        clean = self._baseline(name)
        clean.fit(dataset, split, spec, train_steps)
        masked = self._baseline(name)
        masked.fit(_with_values(dataset, values), split, spec, train_steps)
        got = masked.predict(starts)
        assert np.isfinite(got).all()
        assert got.tobytes() == clean.predict(starts).tobytes()

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

    @pytest.mark.parametrize(
        "name",
        ["IGNNK", "INCREASE", "GE-GAN", "GP-Kriging", "IDWPersistence", "NearestObserved"],
    )
    def test_baseline_predict_refuses_non_finite_observed_input(self, probe, name):
        # Before the check, 20 NaN in observed test rows made 1.1%
        # (NearestObserved) to 68% (IGNNK) of these forecasts NaN, with no
        # error.  Windows without one still forecast bitwise.
        from repro.core import NonFiniteObservationsError

        dataset, split, spec, train_steps = probe
        test_rows = np.arange(train_steps[-1] + 1, dataset.num_steps)
        bad, _first = self._with_nan_cells(dataset, split, test_rows, 20)
        starts = np.arange(test_rows[0], dataset.num_steps - spec.input_length + 1)
        windows = bad.values[starts[:, None] + np.arange(spec.input_length)]
        dirty = ~np.isfinite(windows[..., split.observed]).all(axis=(1, 2))
        first = int(starts[dirty][0])
        sensors = ~np.isfinite(bad.values[first : first + spec.input_length, split.observed])
        model = self._baseline(name)
        model.fit(bad, split, spec, train_steps)
        with pytest.raises(NonFiniteObservationsError) as caught:
            model.predict(starts)
        assert f"in the input window at start {first} of" in str(caught.value)
        assert f"first: sensor {int(split.observed[sensors.any(axis=0)][0])})" in str(caught.value)
        row = test_rows[~np.isfinite(bad.values[test_rows][:, split.observed]).all(axis=1)][0]
        for start in (row - spec.input_length + 1, row):  # the window's last, then first step
            with pytest.raises(NonFiniteObservationsError):
                model.predict(np.array([start]))
        clean = self._baseline(name)
        clean.fit(dataset, split, spec, train_steps)
        kept = starts[~dirty]
        assert model.predict(kept).tobytes() == clean.predict(kept).tobytes()
