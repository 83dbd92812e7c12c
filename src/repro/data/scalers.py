"""Value scaler.

Standard practice for the kriging/forecasting baselines (and kept for STSM):
fit a z-score scaler on the *observed training* values only — unobserved
locations never leak statistics — and invert predictions before metrics.
"""

from __future__ import annotations

import numpy as np

__all__ = ["StandardScaler"]


class StandardScaler:
    """Z-score normalisation fitted on a flat view of the given values."""

    def __init__(self) -> None:
        self.mean_: float | None = None
        self.std_: float | None = None

    def fit(self, values: np.ndarray) -> "StandardScaler":
        values = np.asarray(values, dtype=float)
        finite = values[np.isfinite(values)]
        if finite.size == 0:
            raise ValueError("cannot fit scaler on empty/non-finite data")
        self.mean_ = float(finite.mean())
        self.std_ = float(finite.std())
        if self.std_ == 0.0:
            self.std_ = 1.0
        return self

    def _check_fitted(self) -> None:
        if self.mean_ is None:
            raise RuntimeError("scaler used before fit()")

    def transform(self, values: np.ndarray) -> np.ndarray:
        self._check_fitted()
        return (np.asarray(values, dtype=float) - self.mean_) / self.std_

    def inverse_transform(self, values: np.ndarray) -> np.ndarray:
        self._check_fitted()
        return np.asarray(values, dtype=float) * self.std_ + self.mean_
