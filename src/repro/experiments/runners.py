"""Shared experiment machinery: model factory, dataset builder, runner."""

from __future__ import annotations

import os
import time
from typing import Sequence

import numpy as np

from ..baselines import (
    GEGANForecaster,
    GPKrigingForecaster,
    HistoricalAverageForecaster,
    IDWPersistenceForecaster,
    IGNNKForecaster,
    INCREASEForecaster,
    MatrixCompletionForecaster,
    NearestObservedForecaster,
)
from ..core import STSM_VARIANTS, config_for_dataset
from ..data.dataset import SpatioTemporalDataset
from ..data.splits import SpaceSplit, space_split
from ..data.synthetic import make_dataset
from ..evaluation import EvaluationResult, average_metrics, evaluate_forecaster
from ..interfaces import Forecaster
from .configs import ExperimentScale

__all__ = [
    "BASELINE_NAMES",
    "CLASSICAL_NAMES",
    "NAIVE_NAMES",
    "STSM_NAMES",
    "build_dataset",
    "build_model",
    "evaluate_cell",
    "run_matrix",
    "splits_for",
    "summarize_results",
    "ratio_split",
]

BASELINE_NAMES = ("GE-GAN", "IGNNK", "INCREASE")
CLASSICAL_NAMES = ("GP-Kriging", "MatrixCompletion")
NAIVE_NAMES = ("HistoricalAverage", "NearestObserved", "IDW")
STSM_NAMES = ("STSM-RNC", "STSM-NC", "STSM-R", "STSM")


def build_dataset(
    dataset_key: str,
    scale: ExperimentScale,
    num_sensors: int | None = None,
    num_days: int | None = None,
    seed: int | None = None,
) -> SpatioTemporalDataset:
    """Build a preset at the scale's (or explicitly given) size."""
    scale_sensors, scale_days = scale.dataset_size(dataset_key)
    return make_dataset(
        dataset_key,
        num_sensors=num_sensors if num_sensors is not None else scale_sensors,
        num_days=num_days if num_days is not None else scale_days,
        seed=seed,
    )


def build_model(
    model_name: str,
    dataset_key: str,
    scale: ExperimentScale,
    num_observed: int | None = None,
    seed: int = 0,
    **stsm_overrides,
) -> Forecaster:
    """Instantiate a model by table name with scale-appropriate budgets.

    ``num_observed`` caps STSM's top-K at the number of observed locations
    (the paper's K values exceed small-scale sensor counts).
    """
    if model_name == "GE-GAN":
        return GEGANForecaster(seed=seed, **scale.gegan)
    if model_name == "IGNNK":
        return IGNNKForecaster(seed=seed, **scale.ignnk)
    if model_name == "INCREASE":
        return INCREASEForecaster(seed=seed, **scale.increase)
    if model_name == "GP-Kriging":
        return GPKrigingForecaster(seed=seed, **scale.kriging)
    if model_name == "MatrixCompletion":
        return MatrixCompletionForecaster(seed=seed, **scale.completion)
    if model_name == "HistoricalAverage":
        return HistoricalAverageForecaster()
    if model_name == "NearestObserved":
        return NearestObservedForecaster()
    if model_name == "IDW":
        return IDWPersistenceForecaster()
    if model_name in STSM_VARIANTS:
        overrides = dict(scale.stsm)
        overrides.update(stsm_overrides)
        overrides["seed"] = seed
        config = config_for_dataset(dataset_key, **overrides)
        if num_observed is not None and config.top_k > num_observed:
            config = config.replace(top_k=max(2, num_observed // 2))
        return STSM_VARIANTS[model_name](config=config)
    raise KeyError(f"unknown model {model_name!r}")


def splits_for(dataset: SpatioTemporalDataset, scale: ExperimentScale) -> list[SpaceSplit]:
    """The scale's split variants for a dataset."""
    return [space_split(dataset.coords, kind) for kind in scale.split_kinds]


def ratio_split(
    coords: np.ndarray, kind: str, unobserved_ratio: float
) -> SpaceSplit:
    """A split with a custom unobserved ratio (paper Fig. 8).

    The observed part keeps the paper's 4:1 train:validation proportion.
    """
    if not 0.0 < unobserved_ratio < 1.0:
        raise ValueError(f"unobserved_ratio must be in (0, 1), got {unobserved_ratio}")
    observed = 1.0 - unobserved_ratio
    fractions = (0.8 * observed, 0.2 * observed, unobserved_ratio)
    return space_split(coords, kind, fractions=fractions)


def evaluate_cell(
    dataset: SpatioTemporalDataset,
    dataset_key: str,
    model_name: str,
    scale: ExperimentScale,
    split: SpaceSplit,
    spec,
    seed: int,
    cache_store: bool | None = None,
    stsm_overrides: dict | None = None,
) -> EvaluationResult:
    """Build and evaluate one independent (model, split, seed) sweep cell.

    This is the unit both the serial ``run_matrix`` loop and the
    process-pool executor (:mod:`repro.experiments.parallel`) run: the
    model is constructed fresh from ``(dataset_key, seed)``, so the
    cell's outputs depend on nothing outside its arguments — which is
    what makes the parallel decomposition bit-identical to serial.
    """
    overrides = dict(stsm_overrides or {})
    if cache_store is not None:
        # Reaches STSM-family configs; baseline builders ignore the
        # stsm_overrides channel entirely.
        overrides["cache_store"] = cache_store
    model = build_model(
        model_name,
        dataset_key,
        scale,
        num_observed=len(split.observed),
        seed=seed,
        **overrides,
    )
    return evaluate_forecaster(
        model,
        dataset,
        split,
        spec,
        max_test_windows=scale.max_test_windows,
    )


def summarize_results(results: list[EvaluationResult]) -> dict:
    """One model's sweep entry: averaged metrics, the raw results, mean timings."""
    return {
        "metrics": average_metrics(results),
        "results": results,
        "train_seconds": float(np.mean([r.fit_report.train_seconds for r in results])),
        "test_seconds": float(np.mean([r.test_seconds for r in results])),
    }


def run_matrix(
    dataset: SpatioTemporalDataset,
    dataset_key: str,
    model_names: list[str],
    scale: ExperimentScale,
    splits: list[SpaceSplit] | None = None,
    seed: int = 0,
    seeds: Sequence[int] | None = None,
    cache_store: bool | None = None,
    jobs: int | None = None,
    **stsm_overrides,
) -> dict[str, dict]:
    """Evaluate each model on each split (and seed); return per-model averages.

    ``cache_store`` controls cross-fit artifact reuse through the
    process-wide :class:`~repro.engine.ArtifactStore`: ``None`` follows
    the process opt-in (``$REPRO_CACHE_DIR`` / ``open_store``),
    ``True``/``False`` force it on or off for this sweep.  With the
    store active, STSM fits share DTW pairs and masked adjacencies
    across seeds and hyper-parameters, and dirty entries are persisted
    to the disk tier — all bit-exact, so sweep metrics are identical to
    the store-disabled path.

    ``seeds`` widens the grid to model × split × seed: each model's
    ``results`` list covers every (split, seed) pair, split-major, and
    the averages span all of them.  Omitted, the grid is the classic
    model × split at the single ``seed``.

    ``jobs`` evaluates the grid's independent cells across that many
    worker processes (``None``: ``$REPRO_SWEEP_JOBS`` or serial; ``0``
    or negative: all cores — see :mod:`repro.experiments.parallel`).
    Each cell builds its own model from ``(dataset_key, seed)`` and the
    merge re-assembles the serial iteration order, so parallel metrics
    are bit-identical to serial; per-cell timing lands in each result's
    ``extra["sweep"]``.  A cell that fails (after one retry) surfaces a
    structured :class:`~repro.experiments.parallel.SweepCellError`
    without killing the rest of the sweep.

    Returns ``{model_name: {"metrics": Metrics, "results": [...],
    "train_seconds": float, "test_seconds": float}}``.
    """
    from ..engine import active_store  # local import: keep runners light
    from .parallel import execute_matrix, resolve_jobs

    store = active_store(cache_store)
    splits = splits if splits is not None else splits_for(dataset, scale)
    spec = scale.window_spec(dataset_key)
    seed_list = tuple(seeds) if seeds is not None else (seed,)
    if not seed_list:
        raise ValueError("seeds must be non-empty when given")
    num_jobs = resolve_jobs(jobs)
    num_cells = len(model_names) * len(splits) * len(seed_list)
    if num_jobs > 1 and num_cells > 1:
        return execute_matrix(
            dataset,
            dataset_key,
            model_names,
            scale,
            splits,
            spec,
            seed_list,
            cache_store,
            stsm_overrides,
            num_jobs,
            store,
        )
    out: dict[str, dict] = {}
    for model_name in model_names:
        results: list[EvaluationResult] = []
        for split in splits:
            for cell_seed in seed_list:
                began = time.perf_counter()
                result = evaluate_cell(
                    dataset,
                    dataset_key,
                    model_name,
                    scale,
                    split,
                    spec,
                    cell_seed,
                    cache_store=cache_store,
                    stsm_overrides=stsm_overrides,
                )
                result.extra["sweep"] = {
                    "jobs": 1,
                    "cell_seconds": time.perf_counter() - began,
                    "worker_pid": os.getpid(),
                    "attempts": 1,
                    "schedule_rank": len(results),
                }
                results.append(result)
        out[model_name] = summarize_results(results)
    return out
