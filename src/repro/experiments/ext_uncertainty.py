"""Extension experiment: calibrated uncertainty for the unobserved region.

STSM is a point forecaster; the paper's related work points at DeepSTUQ
[Qian et al. 2023] for uncertainty-aware traffic forecasting.  Forecasting
a region with *no sensors at all* is where error bars matter most, so this
experiment scores three predictive-distribution constructions on the same
contiguous-unobserved split:

* **STSM + MC dropout** — stochastic forward passes of one trained model;
* **STSM deep ensemble** — independently seeded members;
* **GP kriging** — the classical closed-form Gaussian predictive.

Reported per model: point RMSE, PICP vs the nominal level, MPIW, Winkler
score and CRPS.  The expected shape: both neural constructions badly
*under-cover* (PICP ≪ nominal) — they only express epistemic spread
around one learned function, which says nothing about the irreducible
error of extrapolating into a sensor-free region — while the GP's
distance-driven variance yields wide but honest intervals (PICP near
nominal) and consequently a better Winkler score despite a worse point
RMSE.  This is the classic argument for hybrid UQ (DeepSTUQ combines
variational and post-hoc calibration for the same reason).
"""

from __future__ import annotations

import numpy as np

from ..baselines import GPKrigingForecaster
from ..core import DeepEnsembleForecaster, MCDropoutForecaster, config_for_dataset
from ..core.variants import STSM_VARIANTS
from ..data import space_split, temporal_split
from ..evaluation import (
    compute_metrics,
    evaluate_intervals,
    forecast_window_starts,
    stack_truth,
)
from .configs import get_scale
from .reporting import format_table
from .runners import build_dataset

__all__ = ["run"]


def _stsm_factory(dataset_key, scale, num_observed):
    """STSM constructor bound to the scale's budgets (mirrors build_model)."""

    def make(seed: int):
        overrides = dict(scale.stsm)
        overrides["seed"] = seed
        config = config_for_dataset(dataset_key, **overrides)
        if config.top_k > num_observed:
            config = config.replace(top_k=max(2, num_observed // 2))
        if config.dropout <= 0.0:
            config = config.replace(dropout=0.1)
        return STSM_VARIANTS["STSM"](config=config)

    return make


def run(
    scale_name: str = "small",
    dataset_key: str = "pems-bay",
    coverage: float = 0.8,
    mc_samples: int = 8,
    ensemble_members: int = 3,
    seed: int = 0,
) -> dict:
    """Score MC-dropout, ensemble and GP-kriging intervals on one split."""
    scale = get_scale(scale_name)
    dataset = build_dataset(dataset_key, scale)
    split = space_split(dataset.coords, "horizontal")
    spec = scale.window_spec(dataset_key)
    train_ix, _ = temporal_split(dataset.num_steps)
    starts = forecast_window_starts(
        dataset, spec, max_windows=scale.max_test_windows
    )
    truth = stack_truth(dataset, split, spec, starts)
    factory = _stsm_factory(dataset_key, scale, num_observed=len(split.observed))

    models = {
        "STSM-MCDropout": MCDropoutForecaster(factory(seed), num_samples=mc_samples),
        "STSM-Ensemble": DeepEnsembleForecaster(
            factory, num_members=ensemble_members,
            seeds=list(range(seed, seed + ensemble_members)),
        ),
        "GP-Kriging": GPKrigingForecaster(seed=seed),
    }

    rows = []
    details = {}
    for name, model in models.items():
        model.fit(dataset, split, spec, train_ix)
        if isinstance(model, GPKrigingForecaster):
            # Closed-form Gaussian: draw samples for the common CRPS path.
            mean, variance = model.predict_with_variance(starts)
            sigma = np.sqrt(variance) * model.scaler.std_
            rng = np.random.default_rng(seed)
            noise = rng.standard_normal((max(mc_samples, 16),) + mean.shape)
            samples = mean[None] + noise * sigma[None, None, None, :]
        else:
            samples = model.predict_samples(starts)
        interval = evaluate_intervals(samples, truth, coverage=coverage)
        point = compute_metrics(samples.mean(axis=0), truth)
        rows.append(
            {
                "Model": name,
                "RMSE": point.rmse,
                "PICP": interval.picp,
                "MPIW": interval.mpiw,
                "Winkler": interval.winkler,
                "CRPS": interval.crps,
            }
        )
        details[name] = {"interval": interval, "point": point}

    text = (
        f"Uncertainty on {dataset_key} ({scale.name} scale, nominal coverage "
        f"{coverage:.0%})\n" + format_table(rows)
    )
    return {"rows": rows, "details": details, "coverage": coverage, "text": text}
