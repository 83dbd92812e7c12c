"""End-to-end model evaluation on a dataset + split.

Handles the paper's protocol (§5.1.1): temporal 70/30 split, fit on the
observed region over the training period, forecast the unobserved region
over test-period windows, and report RMSE/MAE/MAPE/R² plus wall-clock
train/test times (Table 5).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..data.dataset import SpatioTemporalDataset
from ..data.splits import SpaceSplit, temporal_split
from ..data.windows import WindowSpec
from ..interfaces import FitReport, Forecaster
from .horizon import stack_truth
from .metrics import Metrics, compute_metrics

__all__ = ["EvaluationResult", "evaluate_forecaster", "average_metrics"]


@dataclass
class EvaluationResult:
    """Metrics and timings for one (model, dataset, split) run."""

    model_name: str
    dataset_name: str
    split_name: str
    metrics: Metrics
    fit_report: FitReport
    test_seconds: float
    num_windows: int
    extra: dict = field(default_factory=dict)


def forecast_window_starts(
    dataset: SpatioTemporalDataset,
    spec: WindowSpec,
    max_windows: int | None = None,
) -> np.ndarray:
    """Window starts lying fully inside the test (last 30%) period."""
    _train_ix, test_ix = temporal_split(dataset.num_steps)
    first = int(test_ix[0])
    usable = dataset.num_steps - spec.total
    if usable < first:
        raise ValueError("test period is shorter than one window")
    starts = np.arange(first, usable + 1)
    if max_windows is not None and len(starts) > max_windows:
        pick = np.linspace(0, len(starts) - 1, max_windows).round().astype(int)
        starts = starts[np.unique(pick)]
    return starts


def evaluate_forecaster(
    forecaster: Forecaster,
    dataset: SpatioTemporalDataset,
    split: SpaceSplit,
    spec: WindowSpec,
    max_test_windows: int | None = 64,
) -> EvaluationResult:
    """Fit and evaluate one model on one dataset/split, training on the
    first 70% of the steps.

    ``max_test_windows`` caps the number of evaluated windows (spread
    evenly over the test period) so reduced-scale benchmark runs stay
    fast; pass ``None`` to use every window.
    """
    split.validate(dataset.num_locations)
    train_ix, _test_ix = temporal_split(dataset.num_steps)
    fit_report = forecaster.fit(dataset, split, spec, train_ix)

    starts = forecast_window_starts(dataset, spec, max_windows=max_test_windows)
    began = time.perf_counter()
    predictions = forecaster.predict(starts)
    test_seconds = time.perf_counter() - began

    truth = stack_truth(dataset, split, spec, starts)
    if predictions.shape != truth.shape:
        raise ValueError(
            f"{forecaster.name} returned predictions of shape {predictions.shape}, "
            f"expected {truth.shape}"
        )
    return EvaluationResult(
        model_name=forecaster.name,
        dataset_name=dataset.name,
        split_name=split.name,
        metrics=compute_metrics(predictions, truth),
        fit_report=fit_report,
        test_seconds=test_seconds,
        num_windows=len(starts),
    )


def average_metrics(results: Sequence[EvaluationResult]) -> Metrics:
    """Mean of each metric over runs (the paper reports split averages)."""
    if not results:
        raise ValueError("no results to average")
    return Metrics(
        rmse=float(np.mean([r.metrics.rmse for r in results])),
        mae=float(np.mean([r.metrics.mae for r in results])),
        mape=float(np.mean([r.metrics.mape for r in results])),
        r2=float(np.mean([r.metrics.r2 for r in results])),
    )

