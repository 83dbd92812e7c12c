"""The Forecaster contract, enforced across every model in the library.

Every model — the paper's baselines, the classical methods, the naive
references, and all STSM variants — goes through the same lifecycle
checks on one micro dataset.  This is the test that keeps a future model
addition honest: if it registers a name, it inherits these assertions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    GEGANForecaster,
    GPKrigingForecaster,
    HistoricalAverageForecaster,
    IDWPersistenceForecaster,
    IGNNKForecaster,
    INCREASEForecaster,
    MatrixCompletionForecaster,
    NearestObservedForecaster,
)
from repro.core import STSM_VARIANTS, STSMConfig
from repro.data import WindowSpec, space_split, temporal_split
from repro.data.dataset import SpatioTemporalDataset
from repro.data.synthetic import make_pems_bay
from repro.evaluation import forecast_window_starts
from repro.interfaces import FitReport

_TINY_STSM = dict(
    hidden_dim=8, num_blocks=1, tcn_levels=2, gcn_depth=1, epochs=1,
    patience=1, batch_size=8, window_stride=8, top_k=4, gat_heads=2,
)


def _stsm_factory(variant):
    return lambda: STSM_VARIANTS[variant](config=STSMConfig(**_TINY_STSM))


MODEL_FACTORIES = {
    "GE-GAN": lambda: GEGANForecaster(iterations=20),
    "IGNNK": lambda: IGNNKForecaster(iterations=10),
    "INCREASE": lambda: INCREASEForecaster(iterations=10),
    "GP-Kriging": GPKrigingForecaster,
    "MatrixCompletion": lambda: MatrixCompletionForecaster(rank=3, iterations=4),
    "HistoricalAverage": HistoricalAverageForecaster,
    "NearestObserved": NearestObservedForecaster,
    "IDW": IDWPersistenceForecaster,
    # Road-distance variants need a road network; they have their own
    # integration tests, so the contract sweep covers the other variants.
    "STSM": _stsm_factory("STSM"),
    "STSM-R": _stsm_factory("STSM-R"),
    "STSM-NC": _stsm_factory("STSM-NC"),
    "STSM-RNC": _stsm_factory("STSM-RNC"),
    "STSM-trans": _stsm_factory("STSM-trans"),
    "STSM-gat": _stsm_factory("STSM-gat"),
}

#: Models whose fit+predict is fully determined by their constructor seed.
DETERMINISTIC = (
    "GP-Kriging", "MatrixCompletion", "HistoricalAverage",
    "NearestObserved", "IDW", "STSM-RNC",
)


@pytest.fixture(scope="module")
def micro():
    dataset = make_pems_bay(num_sensors=16, num_days=2, seed=42)
    split = space_split(dataset.coords, "horizontal")
    spec = WindowSpec(input_length=6, horizon=6)
    train_ix, _ = temporal_split(dataset.num_steps)
    starts = forecast_window_starts(dataset, spec, max_windows=3)
    return dataset, split, spec, train_ix, starts


@pytest.fixture(scope="module")
def fitted_models(micro):
    dataset, split, spec, train_ix, _starts = micro
    fitted = {}
    for name, factory in MODEL_FACTORIES.items():
        model = factory()
        report = model.fit(dataset, split, spec, train_ix)
        fitted[name] = (model, report)
    return fitted


@pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
class TestForecasterContract:
    def test_fit_report(self, fitted_models, name):
        _model, report = fitted_models[name]
        assert isinstance(report, FitReport)
        assert report.train_seconds >= 0.0
        assert report.epochs >= 1

    def test_prediction_shape_and_finiteness(self, fitted_models, micro, name):
        dataset, split, spec, _train_ix, starts = micro
        model, _report = fitted_models[name]
        out = model.predict(starts)
        assert out.shape == (len(starts), spec.horizon, len(split.unobserved))
        assert np.all(np.isfinite(out))

    def test_empty_predict_shape(self, fitted_models, micro, name):
        """No window starts → an empty ``(0, T', N_u)`` forecast, not an error."""
        _dataset, split, spec, _train_ix, _starts = micro
        model, _report = fitted_models[name]
        out = model.predict(np.array([], dtype=int))
        assert out.shape == (0, spec.horizon, len(split.unobserved))

    def test_predict_is_idempotent(self, fitted_models, micro, name):
        """Calling predict twice must not mutate model state."""
        _dataset, _split, _spec, _train_ix, starts = micro
        model, _report = fitted_models[name]
        first = model.predict(starts)
        second = model.predict(starts)
        assert np.allclose(first, second)

    @pytest.mark.parametrize("where", ["before_first", "after_last", "last_step"])
    def test_predict_refuses_start_outside_the_data(self, fitted_models, micro, name, where):
        """A start whose input window ``[s, s + T)`` leaves the data raises
        ``ValueError`` naming it and the valid range."""
        dataset, _split, spec, _train_ix, starts = micro
        model, _report = fitted_models[name]
        last = dataset.num_steps - spec.input_length
        bad = {"before_first": -1, "after_last": last + 1, "last_step": dataset.num_steps - 1}[where]
        with pytest.raises(ValueError, match=rf"window start {bad} .*\[0, {last}\]"):
            model.predict(np.array([*starts, bad]))

    def test_predict_accepts_the_last_start(self, fitted_models, micro, name):
        """The last start whose input window fits forecasts past the data."""
        dataset, split, spec, _train_ix, _starts = micro
        model, _report = fitted_models[name]
        out = model.predict(np.array([dataset.num_steps - spec.input_length]))
        assert out.shape == (1, spec.horizon, len(split.unobserved))
        assert np.all(np.isfinite(out))

    def test_predictions_in_plausible_range(self, fitted_models, micro, name):
        """Forecasts stay within a generous band of the data range."""
        dataset, _split, _spec, _train_ix, starts = micro
        model, _report = fitted_models[name]
        out = model.predict(starts)
        spread = dataset.values.max() - dataset.values.min()
        assert out.min() > dataset.values.min() - 3 * spread
        assert out.max() < dataset.values.max() + 3 * spread


@pytest.mark.parametrize("name", DETERMINISTIC)
def test_refit_determinism(micro, name):
    """Same constructor + same data → identical predictions."""
    dataset, split, spec, train_ix, starts = micro
    outputs = []
    for _ in range(2):
        model = MODEL_FACTORIES[name]()
        model.fit(dataset, split, spec, train_ix)
        outputs.append(model.predict(starts))
    assert np.array_equal(outputs[0], outputs[1])


def _perturbed(dataset, unobserved, kinds, scale, shift, sigma, seed):
    """``dataset`` with each unobserved sensor's readings replaced as its
    kind says: an affine map, Gaussian noise, NaN or an infinity."""
    values = dataset.values.copy()
    noise = np.random.default_rng(seed).normal(0.0, sigma, size=values.shape)
    for sensor, kind in zip(unobserved, kinds):
        column = values[:, sensor]
        values[:, sensor] = {
            "affine": scale * column + shift,
            "noise": column + noise[:, sensor],
            "nan": np.nan,
            "+inf": np.inf,
            "-inf": -np.inf,
        }[kind]
    return SpatioTemporalDataset(
        name=dataset.name,
        values=values,
        coords=dataset.coords,
        steps_per_day=dataset.steps_per_day,
        features=dataset.features,
        interval_minutes=dataset.interval_minutes,
    )


@pytest.mark.parametrize("name", ["STSM", "IGNNK", "IDW"])
@settings(max_examples=6, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(["affine", "noise", "nan", "+inf", "-inf"]),
                   min_size=1, max_size=16),
    scale=st.floats(-10.0, 10.0),
    shift=st.floats(-1e3, 1e3),
    sigma=st.floats(0.1, 100.0),
    seed=st.integers(0, 2**16),
)
def test_unobserved_readings_do_not_leak(fitted_models, micro, name, kinds, scale, shift,
                                         sigma, seed):
    """The paper's inductive setting (§3.5): a model trains on the observed
    sub-graph only, so whatever the unobserved sensors' readings hold before
    fit, the predictions are bitwise those of the unperturbed fit."""
    dataset, split, spec, train_ix, starts = micro
    kinds = (kinds * len(split.unobserved))[: len(split.unobserved)]
    perturbed = _perturbed(dataset, split.unobserved, kinds, scale, shift, sigma, seed)
    model = MODEL_FACTORIES[name]()
    model.fit(perturbed, split, spec, train_ix)
    expected = fitted_models[name][0].predict(starts)
    assert model.predict(starts).tobytes() == expected.tobytes()


def test_fit_on_nan_unobserved_readings_serves_the_same_bytes(fitted_models, micro):
    """Served through the runtime, an STSM fit whose unobserved readings
    are all NaN answers with the clean fit's direct-predict bytes."""
    from repro.serving import ServingRuntime

    dataset, split, spec, train_ix, starts = micro
    nan = ["nan"] * len(split.unobserved)
    model = MODEL_FACTORIES["STSM"]()
    model.fit(_perturbed(dataset, split.unobserved, nan, 1.0, 0.0, 1.0, 0), split, spec, train_ix)
    with ServingRuntime() as runtime:
        runtime.register("stsm", model)
        served = runtime.forecast("stsm", starts)
    assert served.tobytes() == fitted_models["STSM"][0].predict(starts).tobytes()
