"""Benchmark: engine caches cut repeated-fit and repeated-predict cost.

Two claims, both bit-exact by construction (content-addressed caches):

* the per-pair DTW memo makes epoch-style ``A_dtw^train`` rebuilds —
  where each fresh mask leaves most profile pairs untouched — much
  cheaper than recomputing every pair every epoch;
* the ForecastService serves repeat window traffic from its result
  cache instead of re-running the model.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import STSMConfig, STSMForecaster
from repro.data import WindowSpec, space_split, temporal_split
from repro.data.synthetic import make_pems_bay
from repro.engine import ArtifactStore, PairwiseDTWCache
from repro.evaluation import forecast_window_starts
from repro.serving import ForecastService
from repro.temporal import build_dtw_adjacency

from conftest import run_once


def _epoch_style_rebuilds(values, steps_per_day, masks, distance_fn=None):
    """Rebuild the DTW adjacency once per mask, like training epochs do."""
    num_nodes = values.shape[1]
    for mask in masks:
        source = np.setdiff1d(np.arange(num_nodes), mask)
        build_dtw_adjacency(
            values,
            observed_index=source,
            target_index=mask,
            steps_per_day=steps_per_day,
            num_nodes=num_nodes,
            distance_fn=distance_fn,
        )


def test_dtw_cache_speeds_up_repeated_rebuilds(benchmark):
    rng = np.random.default_rng(5)
    num_nodes, steps_per_day, days, epochs = 48, 24, 3, 12
    values = rng.normal(size=(steps_per_day * days, num_nodes))
    masks = [
        np.sort(rng.choice(num_nodes, size=num_nodes // 4, replace=False))
        for _ in range(epochs)
    ]

    began = time.perf_counter()
    _epoch_style_rebuilds(values, steps_per_day, masks)
    uncached_seconds = time.perf_counter() - began

    def cached_run():
        cache = PairwiseDTWCache(ArtifactStore())  # cold memo every run
        _epoch_style_rebuilds(values, steps_per_day, masks, cache.distance_matrix)
        return cache.stats

    stats = run_once(benchmark, cached_run)
    cached_seconds = benchmark.stats.stats.total
    speedup = uncached_seconds / max(cached_seconds, 1e-9)
    print(
        f"\nA_dtw rebuild x{epochs}: uncached {uncached_seconds * 1e3:.1f} ms, "
        f"cached {cached_seconds * 1e3:.1f} ms ({speedup:.1f}x), "
        f"pair hits/misses: {stats['hits']}/{stats['misses']}"
    )
    # Most pairs repeat across masks, so the memo must win clearly.
    assert stats["hits"] > stats["misses"]
    assert cached_seconds < uncached_seconds


def test_service_repeat_traffic_is_cached(benchmark):
    dataset = make_pems_bay(num_sensors=18, num_days=3, seed=31)
    split = space_split(dataset.coords, "horizontal")
    spec = WindowSpec(input_length=6, horizon=6)
    train_ix, _ = temporal_split(dataset.num_steps)
    cfg = STSMConfig(
        hidden_dim=8, num_blocks=1, tcn_levels=2, gcn_depth=1,
        epochs=2, patience=2, batch_size=8, window_stride=8, top_k=5,
    )
    model = STSMForecaster(cfg)
    model.fit(dataset, split, spec, train_ix)
    starts = forecast_window_starts(dataset, spec, max_windows=16)

    service = ForecastService(model, cache_size=64)
    began = time.perf_counter()
    cold = service.forecast(starts)
    cold_seconds = time.perf_counter() - began

    def repeat_traffic():
        return service.forecast(starts)

    warm = run_once(benchmark, repeat_traffic)
    warm_seconds = benchmark.stats.stats.total
    print(
        f"\nForecastService 16 windows: cold {cold_seconds * 1e3:.1f} ms, "
        f"repeat {warm_seconds * 1e3:.1f} ms "
        f"({cold_seconds / max(warm_seconds, 1e-9):.0f}x), "
        f"stats: {service.stats}"
    )
    assert np.array_equal(cold, warm)
    assert service.stats["windows_computed"] == len(starts)  # computed once only
    assert warm_seconds < cold_seconds
