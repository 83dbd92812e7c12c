"""Extension experiment: progressive sensor deployment.

The paper motivates its problem with "sensors are deployed progressively
from one region to another (one such scenario has been observed in Hong
Kong)" (§1, case 1) but never simulates the progression itself.  This
experiment does: a deployment corridor between the always-observed base
region and a permanently sensor-free core comes online stage by stage,
and every stage is scored on the *same* core locations.

Two questions this answers for a deployment planner:

1. How much does each deployment increment improve forecasts for the
   still-unsensed core?  (The marginal value of the next batch of
   sensors.)
2. Is the improvement monotone?

The measured answer to (2) is **no**, and the mechanism is instructive:
on the synthetic city the corridor's middle zone behaves differently from
the core (urban arterial dynamics vs the core's roads), so at the
half-deployed stage the *nearest* observed sensors are dissimilar ones.
Locality-based predictors are actively misled — nearest-copy and GP
kriging roughly double their core RMSE at that stage — while the global
IDW reference, which averages all sensors, is never misled (flat to
improving across stages).  The learned models sit in between: they dip at
half deployment and recover once near-core sensors arrive.  This is
precisely the paper's argument for weighting by *similarity* rather than
proximity alone (§4.1).
"""

from __future__ import annotations

import numpy as np

from ..data.splits import progressive_splits
from ..data.windows import gather_windows
from ..evaluation import compute_metrics, forecast_window_starts
from .configs import get_scale
from .reporting import format_table
from .runners import build_dataset, build_model

__all__ = ["run"]


def run(
    scale_name: str = "small",
    dataset_key: str = "pems-bay",
    models: list[str] | None = None,
    stages: tuple[float, ...] = (0.0, 0.5, 1.0),
    seed: int = 0,
) -> dict:
    """Score each model on the fixed core at each deployment stage."""
    scale = get_scale(scale_name)
    model_names = models if models is not None else ["IDW", "INCREASE", "STSM"]
    dataset = build_dataset(dataset_key, scale)
    spec = scale.window_spec(dataset_key)
    splits, core = progressive_splits(dataset.coords, "horizontal", stages=stages)
    starts = forecast_window_starts(dataset, spec, max_windows=scale.max_test_windows)
    core_truth = gather_windows(
        dataset.values, starts + spec.input_length, spec.horizon
    )[:, :, core]
    train_ix = np.arange(int(round(dataset.num_steps * 0.7)))

    rows = []
    core_rmse: dict[str, list[float]] = {name: [] for name in model_names}
    for stage, split in zip(stages, splits):
        # Column positions of the core inside this stage's unobserved set.
        positions = np.searchsorted(split.unobserved, core)
        for name in model_names:
            model = build_model(
                name, dataset_key, scale, num_observed=len(split.observed), seed=seed
            )
            model.fit(dataset, split, spec, train_ix)
            predictions = model.predict(starts)[:, :, positions]
            metrics = compute_metrics(predictions, core_truth)
            core_rmse[name].append(metrics.rmse)
            rows.append(
                {
                    "Stage": f"{stage:.0%}",
                    "Observed": len(split.observed),
                    "Model": name,
                    "CoreRMSE": metrics.rmse,
                    "CoreMAE": metrics.mae,
                    "CoreR2": metrics.r2,
                }
            )

    text = (
        f"Progressive deployment on {dataset_key} ({scale.name} scale; core = "
        f"{len(core)} never-sensed locations)\n" + format_table(rows)
    )
    return {"rows": rows, "core_rmse": core_rmse, "stages": list(stages), "text": text}
