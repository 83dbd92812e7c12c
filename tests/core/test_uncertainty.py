"""Uncertainty wrappers: MC dropout and deep ensembles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    DeepEnsembleForecaster,
    MCDropoutForecaster,
    STSMConfig,
    make_stsm_rnc,
)
from repro.data import temporal_split
from repro.evaluation import forecast_window_starts
from repro.interfaces import FitReport, Forecaster

_FAST = dict(
    hidden_dim=8,
    num_blocks=1,
    tcn_levels=2,
    gcn_depth=1,
    epochs=2,
    patience=2,
    batch_size=8,
    window_stride=8,
    top_k=5,
    dropout=0.25,
)


class _NoisyStub(Forecaster):
    """Deterministic-per-seed stub: constant + seeded offset."""

    name = "stub"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def fit(self, dataset, split, spec, train_steps) -> FitReport:
        self.spec = spec
        self.n_u = len(split.unobserved)
        self.offset = np.random.default_rng(self.seed).normal()
        return FitReport(train_seconds=0.001, epochs=1)

    def predict(self, window_starts) -> np.ndarray:
        shape = (len(window_starts), self.spec.horizon, self.n_u)
        return np.full(shape, 50.0 + self.offset)


class TestMCDropout:
    @pytest.fixture(scope="class")
    def fitted(self, tiny_traffic, tiny_split, tiny_spec):
        model = MCDropoutForecaster(
            make_stsm_rnc(config=STSMConfig(**_FAST)), num_samples=5
        )
        train_ix, _ = temporal_split(tiny_traffic.num_steps)
        model.fit(tiny_traffic, tiny_split, tiny_spec, train_ix)
        return model

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValueError, match="num_samples"):
            MCDropoutForecaster(make_stsm_rnc(config=STSMConfig(**_FAST)), num_samples=1)

    def test_rejects_zero_dropout(self, tiny_traffic, tiny_split, tiny_spec):
        config = STSMConfig(**{**_FAST, "dropout": 0.0})
        model = MCDropoutForecaster(make_stsm_rnc(config=config))
        train_ix, _ = temporal_split(tiny_traffic.num_steps)
        with pytest.raises(ValueError, match="dropout"):
            model.fit(tiny_traffic, tiny_split, tiny_spec, train_ix)

    def test_predict_before_fit_raises(self):
        model = MCDropoutForecaster(make_stsm_rnc(config=STSMConfig(**_FAST)))
        with pytest.raises(RuntimeError, match="before fit"):
            model.predict_samples(np.array([0]))

    def test_samples_vary(self, fitted, tiny_traffic, tiny_spec, tiny_split):
        starts = forecast_window_starts(tiny_traffic, tiny_spec, max_windows=2)
        samples = fitted.predict_samples(starts)
        assert samples.shape == (
            5, len(starts), tiny_spec.horizon, len(tiny_split.unobserved),
        )
        assert samples.std(axis=0).mean() > 0.0  # dropout injects spread


class TestDeepEnsemble:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError, match="num_members"):
            DeepEnsembleForecaster(_NoisyStub, num_members=1)
        with pytest.raises(ValueError, match="seeds"):
            DeepEnsembleForecaster(_NoisyStub, num_members=3, seeds=[1, 2])

    def test_predict_before_fit_raises(self):
        model = DeepEnsembleForecaster(_NoisyStub, num_members=2)
        with pytest.raises(RuntimeError, match="before fit"):
            model.predict_samples(np.array([0]))

    def test_members_trained_and_diverse(self, tiny_traffic, tiny_split, tiny_spec):
        model = DeepEnsembleForecaster(_NoisyStub, num_members=4)
        train_ix, _ = temporal_split(tiny_traffic.num_steps)
        report = model.fit(tiny_traffic, tiny_split, tiny_spec, train_ix)
        assert len(report.extra["member_train_seconds"]) == 4
        samples = model.predict_samples(np.array([0, 1]))
        assert samples.shape[0] == 4
        assert samples.std(axis=0).mean() > 0.0  # distinct seeds → spread

    def test_mean_is_member_average(self, tiny_traffic, tiny_split, tiny_spec):
        model = DeepEnsembleForecaster(_NoisyStub, num_members=3)
        train_ix, _ = temporal_split(tiny_traffic.num_steps)
        model.fit(tiny_traffic, tiny_split, tiny_spec, train_ix)
        starts = np.array([0])
        assert np.allclose(
            model.predict(starts), model.predict_samples(starts).mean(axis=0)
        )

    def test_stsm_ensemble_end_to_end(self, tiny_traffic, tiny_split, tiny_spec):
        model = DeepEnsembleForecaster(
            lambda seed: make_stsm_rnc(config=STSMConfig(**{**_FAST, "seed": seed})),
            num_members=2,
        )
        train_ix, _ = temporal_split(tiny_traffic.num_steps)
        model.fit(tiny_traffic, tiny_split, tiny_spec, train_ix)
        starts = forecast_window_starts(tiny_traffic, tiny_spec, max_windows=2)
        samples = model.predict_samples(starts)
        assert samples.shape == (2, len(starts), tiny_spec.horizon, len(tiny_split.unobserved))
        assert np.all(np.isfinite(samples))

