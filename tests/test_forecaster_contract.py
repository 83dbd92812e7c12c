"""The Forecaster contract, enforced across every model in the library.

Every model — the paper's baselines, the classical methods, the naive
references, and all STSM variants — goes through the same lifecycle
checks on one micro dataset.  This is the test that keeps a future model
addition honest: if it registers a name, it inherits these assertions.
"""

from __future__ import annotations

import numpy as np
import pytest

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
