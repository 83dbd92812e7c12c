"""Table 5 — model training and testing time.

Paper: GE-GAN needs hours of training (slow GAN convergence); IGNNK and
INCREASE train fastest but are the slowest at test time; STSM tests much
faster than the kriging baselines (1-2 s vs 7-10 s).

Reproduction target (shape): relative ordering of test times — GE-GAN and
STSM faster at test than the per-node kriging loop per prediction
workload — and GE-GAN's training-cost disadvantage when its iteration
budget reflects its slow convergence.

Test time is measured as the minimum of three ``predict`` calls over the
same window set (single calls at reduced scale are sub-10 ms and dominated
by scheduler noise).
"""

from __future__ import annotations

import time

from ..data.splits import space_split, temporal_split
from ..evaluation import compute_metrics, forecast_window_starts, stack_truth
from .configs import get_scale
from .reporting import format_table
from .runners import build_dataset, build_model

__all__ = ["run"]

_TIMING_REPEATS = 3


def run(
    scale_name: str = "small",
    datasets: list[str] | None = None,
    models: list[str] | None = None,
    seed: int = 0,
) -> dict:
    """Measure wall-clock train/test time per model per dataset."""
    scale = get_scale(scale_name)
    keys = datasets if datasets is not None else ["pems-bay", "pems-07", "pems-08", "melbourne"]
    model_names = models if models is not None else ["GE-GAN", "IGNNK", "INCREASE", "STSM"]
    rows = []
    for key in keys:
        dataset = build_dataset(key, scale)
        split = space_split(dataset.coords, "horizontal")
        spec = scale.window_spec(key)
        train_ix, _test_ix = temporal_split(dataset.num_steps)
        starts = forecast_window_starts(
            dataset, spec, max_windows=scale.max_test_windows
        )
        truth = stack_truth(dataset, split, spec, starts)
        for model_name in model_names:
            model = build_model(
                model_name, key, scale, num_observed=len(split.observed), seed=seed
            )
            began = time.perf_counter()
            model.fit(dataset, split, spec, train_ix)
            train_seconds = time.perf_counter() - began
            timings = []
            predictions = None
            for _ in range(_TIMING_REPEATS):
                began = time.perf_counter()
                predictions = model.predict(starts)
                timings.append(time.perf_counter() - began)
            test_seconds = float(min(timings))
            metrics = compute_metrics(predictions, truth)
            rows.append({
                "Dataset": key,
                "Model": model_name,
                "Train(s)": round(train_seconds, 2),
                "Test(s)": round(test_seconds, 4),
                "RMSE": metrics.rmse,
                "_train_seconds": train_seconds,
                "_test_seconds": test_seconds,
            })
    rows_for_text = [
        {k: v for k, v in row.items() if not k.startswith("_")} for row in rows
    ]
    return {"rows": rows, "text": format_table(rows_for_text)}
