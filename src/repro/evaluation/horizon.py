"""Per-horizon error profiles.

The headline tables average over the whole forecast window; these helpers
break errors down by lead time (how fast accuracy decays from +1 step to
+T').
"""

from __future__ import annotations

import numpy as np

from ..data.dataset import SpatioTemporalDataset
from ..data.splits import SpaceSplit
from ..data.windows import WindowSpec, gather_windows
from ..interfaces import Forecaster
from .metrics import Metrics, compute_metrics

__all__ = ["horizon_profile", "stack_truth"]


def stack_truth(
    dataset: SpatioTemporalDataset,
    split: SpaceSplit,
    spec: WindowSpec,
    window_starts: np.ndarray,
) -> np.ndarray:
    """Ground-truth tensor ``(windows, T', N_u)`` for the given starts."""
    starts = np.asarray(window_starts, dtype=int) + spec.input_length
    return gather_windows(dataset.values, starts, spec.horizon)[:, :, split.unobserved]


def horizon_profile(
    forecaster: Forecaster,
    dataset: SpatioTemporalDataset,
    split: SpaceSplit,
    spec: WindowSpec,
    window_starts: np.ndarray,
) -> list[Metrics]:
    """Metrics at each lead time (index ``h`` -> forecasting ``h+1`` steps ahead)."""
    predictions = forecaster.predict(window_starts)
    truth = stack_truth(dataset, split, spec, window_starts)
    if predictions.shape != truth.shape:
        raise ValueError(
            f"prediction shape {predictions.shape} does not match truth {truth.shape}"
        )
    return [
        compute_metrics(predictions[:, h, :], truth[:, h, :])
        for h in range(spec.horizon)
    ]

