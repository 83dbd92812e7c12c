"""Benchmark: regenerate Table 11 (distance functions).

Shape assertion: the three distance variants land in one accuracy band
(the paper's deltas are small: 8.61 / 8.71 / 8.99 RMSE).  The paper's
exact ordering (Euclidean best) does not transfer to this substrate: the
synthetic congestion field propagates along the corridor graph by
construction, which makes road-network distance genuinely informative
here, while the real PEMS data rewards Euclidean interpolation.  See
DESIGN.md §3 (synthetic data substitution).
"""

from __future__ import annotations

from repro.experiments import run_experiment

from conftest import run_once


def test_table11_distance(benchmark, bench_scale):
    result = run_once(benchmark, run_experiment, "table11_distance", scale_name=bench_scale)
    print("\n" + result["text"])
    rmse = {row["Model"]: row["RMSE"] for row in result["rows"]}
    best, worst = min(rmse.values()), max(rmse.values())
    assert worst <= best * 1.20, f"distance variants should be one accuracy band: {rmse}"
