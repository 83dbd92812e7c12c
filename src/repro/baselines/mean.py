"""Naive reference forecasters.

Not part of the paper's baseline table, but used throughout the test suite
as sanity floors: a learned model that loses to the historical-average
predictor on this task is broken.
"""

from __future__ import annotations

import time

import numpy as np

from ..data.missing import FiniteInputCheck, check_finite_observations
from ..data.windows import check_window_starts
from ..graph.distances import euclidean_distance_matrix
from ..interfaces import FitReport, Forecaster

__all__ = ["HistoricalAverageForecaster", "NearestObservedForecaster", "IDWPersistenceForecaster"]


class HistoricalAverageForecaster(Forecaster):
    """Predicts the training-period time-of-day mean of observed locations.

    Every unobserved location receives the same daily profile — the
    strongest model-free use of the periodic structure.
    """

    name = "HistoricalAverage"

    def fit(self, dataset, split, spec, train_steps) -> FitReport:
        began = time.perf_counter()
        self.dataset = dataset
        self.split = split
        self.spec = spec
        values = dataset.values[train_steps][:, split.observed]
        check_finite_observations(values, split.observed)
        steps_per_day = dataset.steps_per_day
        tod = train_steps % steps_per_day
        profile = np.zeros(steps_per_day)
        for interval in range(steps_per_day):
            rows = values[tod == interval]
            profile[interval] = rows.mean() if rows.size else values.mean()
        self.profile = profile
        return FitReport(train_seconds=time.perf_counter() - began, epochs=1)

    def predict(self, window_starts: np.ndarray) -> np.ndarray:
        check_window_starts(window_starts, self.dataset.num_steps, self.spec)
        spec = self.spec
        steps_per_day = self.dataset.steps_per_day
        n_u = len(self.split.unobserved)
        out = np.empty((len(window_starts), spec.horizon, n_u))
        for row, start in enumerate(np.asarray(window_starts, dtype=int)):
            ids = (start + spec.input_length + np.arange(spec.horizon)) % steps_per_day
            out[row] = self.profile[ids][:, None]
        return out


class NearestObservedForecaster(Forecaster):
    """Copies the nearest observed sensor's last input value (persistence)."""

    name = "NearestObserved"

    def fit(self, dataset, split, spec, train_steps) -> FitReport:
        began = time.perf_counter()
        self.dataset = dataset
        self.split = split
        self.spec = spec
        distances = euclidean_distance_matrix(dataset.coords)
        block = distances[np.ix_(split.unobserved, split.observed)]
        self.nearest = split.observed[np.argmin(block, axis=1)]
        self._finite_inputs = FiniteInputCheck(dataset.values, split.observed, spec)
        return FitReport(train_seconds=time.perf_counter() - began, epochs=1)

    def predict(self, window_starts: np.ndarray) -> np.ndarray:
        self._finite_inputs.check(window_starts)
        spec = self.spec
        values = self.dataset.values
        out = np.empty((len(window_starts), spec.horizon, len(self.nearest)))
        for row, start in enumerate(np.asarray(window_starts, dtype=int)):
            last = values[start + spec.input_length - 1, self.nearest]
            out[row] = np.tile(last, (spec.horizon, 1))
        return out


class IDWPersistenceForecaster(Forecaster):
    """Inverse-distance-weighted persistence of observed last inputs."""

    name = "IDWPersistence"

    def fit(self, dataset, split, spec, train_steps) -> FitReport:
        began = time.perf_counter()
        self.dataset = dataset
        self.split = split
        self.spec = spec
        distances = euclidean_distance_matrix(dataset.coords)
        block = distances[np.ix_(split.unobserved, split.observed)]
        inverse = 1.0 / np.maximum(block, 1e-6)
        self.weights = inverse / inverse.sum(axis=1, keepdims=True)
        self._finite_inputs = FiniteInputCheck(dataset.values, split.observed, spec)
        return FitReport(train_seconds=time.perf_counter() - began, epochs=1)

    def predict(self, window_starts: np.ndarray) -> np.ndarray:
        self._finite_inputs.check(window_starts)
        spec = self.spec
        values = self.dataset.values
        observed = self.split.observed
        out = np.empty((len(window_starts), spec.horizon, self.weights.shape[0]))
        for row, start in enumerate(np.asarray(window_starts, dtype=int)):
            last = values[start + spec.input_length - 1, observed]
            out[row] = np.tile(self.weights @ last, (spec.horizon, 1))
        return out
