"""Metrics and evaluation harness (paper §5.1)."""

from .evaluator import (
    EvaluationResult,
    average_metrics,
    evaluate_forecaster,
    forecast_window_starts,
)
from .horizon import horizon_profile, stack_truth
from .intervals import (
    IntervalMetrics,
    crps_from_samples,
    empirical_interval,
    evaluate_intervals,
    mean_interval_width,
    picp,
    winkler_score,
)
from .metrics import Metrics, compute_metrics, mae, mape, r_squared, rmse

__all__ = [
    "Metrics",
    "compute_metrics",
    "rmse",
    "mae",
    "mape",
    "r_squared",
    "EvaluationResult",
    "evaluate_forecaster",
    "average_metrics",
    "forecast_window_starts",
    "horizon_profile",
    "stack_truth",
    "IntervalMetrics",
    "evaluate_intervals",
    "empirical_interval",
    "picp",
    "mean_interval_width",
    "winkler_score",
    "crps_from_samples",
]
