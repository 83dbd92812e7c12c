"""Parallel sweep executor: parity, failure isolation, shared store.

The contract under test (DESIGN.md §13): ``run_matrix(jobs=N)`` produces
*bit-identical* metrics and per-result arrays to the serial path, a
crashing cell surfaces a structured error without killing the sweep, and
workers sharing one cache directory round-trip artifacts concurrently.

Pool spawns cost ~a second each, so the grids here are tiny and the
expensive end-to-end cases share one module-scoped dataset/scale.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from repro.data.synthetic import make_dataset
from repro.engine import ArtifactStore, StoreConfig, active_store, open_store, reset_store
from repro.experiments.configs import get_scale
from repro.experiments.parallel import (
    JOBS_ENV,
    CellFailure,
    SweepCellError,
    expected_cell_cost,
    resolve_jobs,
)
from repro.experiments.runners import run_matrix, splits_for


@pytest.fixture(scope="module")
def tiny():
    """One tiny dataset + scale shared by the end-to-end sweeps."""
    scale = dataclasses.replace(
        get_scale("bench"),
        dataset_sizes={"pems-bay": (14, 2)},
        split_kinds=("horizontal", "vertical"),
        stsm={**get_scale("bench").stsm, "epochs": 2, "patience": 2},
        max_test_windows=4,
    )
    dataset = make_dataset("pems-bay", num_sensors=14, num_days=2, seed=7)
    return dataset, scale, splits_for(dataset, scale)


@pytest.fixture(autouse=True)
def _isolated_store(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv(JOBS_ENV, raising=False)
    reset_store()
    yield
    reset_store()


def _flatten(matrix):
    """Deterministic (model, metrics..., history) view of a run_matrix result."""
    flat = []
    for model_name, info in matrix.items():
        metrics = info["metrics"]
        flat.append((model_name, metrics.rmse, metrics.mae, metrics.mape, metrics.r2))
        for result in info["results"]:
            flat.append(
                (
                    result.model_name,
                    result.split_name,
                    result.metrics.rmse,
                    result.metrics.mae,
                    result.metrics.mape,
                    result.metrics.r2,
                    tuple(result.fit_report.history),
                    result.num_windows,
                )
            )
    return flat


# ----------------------------------------------------------------------
# Unit-level: jobs resolution and scheduling
# ----------------------------------------------------------------------
def test_resolve_jobs_explicit_beats_env(monkeypatch):
    monkeypatch.setenv(JOBS_ENV, "7")
    assert resolve_jobs(3) == 3
    assert resolve_jobs(None) == 7


def test_resolve_jobs_defaults_serial(monkeypatch):
    monkeypatch.delenv(JOBS_ENV, raising=False)
    assert resolve_jobs(None) == 1


def test_resolve_jobs_zero_means_all_cores():
    assert resolve_jobs(0) == (os.cpu_count() or 1)
    assert resolve_jobs(-1) == (os.cpu_count() or 1)


def test_resolve_jobs_rejects_garbage_env(monkeypatch):
    monkeypatch.setenv(JOBS_ENV, "many")
    with pytest.raises(ValueError, match=JOBS_ENV):
        resolve_jobs(None)


def test_expected_cost_orders_stsm_first():
    scale = get_scale("small")
    costs = [
        expected_cell_cost(name, scale)
        for name in ("STSM", "GE-GAN", "IGNNK", "GP-Kriging", "HistoricalAverage")
    ]
    assert costs == sorted(costs, reverse=True)
    assert expected_cell_cost("STSM-NC", scale) > expected_cell_cost("GE-GAN", scale)


# ----------------------------------------------------------------------
# Parity: serial vs parallel, bit-identical
# ----------------------------------------------------------------------
def test_parallel_matches_serial_bitwise(tiny):
    dataset, scale, splits = tiny
    models = ["STSM", "HistoricalAverage"]
    serial = run_matrix(
        dataset, "pems-bay", models, scale, splits=splits, seed=0, jobs=1
    )
    parallel = run_matrix(
        dataset, "pems-bay", models, scale, splits=splits, seed=0, jobs=2
    )
    assert _flatten(serial) == _flatten(parallel)
    # Telemetry rides in extra["sweep"] on both paths.
    for info in parallel.values():
        for result in info["results"]:
            sweep = result.extra["sweep"]
            assert sweep["jobs"] == 2
            assert sweep["attempts"] == 1
            assert sweep["cell_seconds"] > 0
    assert serial["STSM"]["results"][0].extra["sweep"]["jobs"] == 1


def test_parallel_matches_serial_with_seeds_grid(tiny):
    dataset, scale, splits = tiny
    serial = run_matrix(
        dataset, "pems-bay", ["STSM"], scale,
        splits=splits[:1], seeds=(0, 1), jobs=1,
    )
    parallel = run_matrix(
        dataset, "pems-bay", ["STSM"], scale,
        splits=splits[:1], seeds=(0, 1), jobs=2,
    )
    assert len(serial["STSM"]["results"]) == 2
    assert _flatten(serial) == _flatten(parallel)


def test_seeds_grid_extends_serial_results(tiny):
    dataset, scale, splits = tiny
    single = run_matrix(
        dataset, "pems-bay", ["HistoricalAverage"], scale, splits=splits, seed=0
    )
    multi = run_matrix(
        dataset, "pems-bay", ["HistoricalAverage"], scale,
        splits=splits, seeds=(0, 1),
    )
    assert len(multi["HistoricalAverage"]["results"]) == 2 * len(
        single["HistoricalAverage"]["results"]
    )


def test_env_var_drives_jobs(tiny, monkeypatch):
    dataset, scale, splits = tiny
    monkeypatch.setenv(JOBS_ENV, "2")
    matrix = run_matrix(
        dataset, "pems-bay", ["HistoricalAverage", "NearestObserved"], scale,
        splits=splits, seed=0,
    )
    for info in matrix.values():
        for result in info["results"]:
            assert result.extra["sweep"]["jobs"] == 2


def test_empty_seeds_rejected(tiny):
    dataset, scale, splits = tiny
    with pytest.raises(ValueError, match="seeds"):
        run_matrix(dataset, "pems-bay", ["STSM"], scale, splits=splits, seeds=())


# ----------------------------------------------------------------------
# Failure isolation
# ----------------------------------------------------------------------
def test_failed_cell_is_structured_and_sweep_survives(tiny):
    dataset, scale, splits = tiny
    with pytest.raises(SweepCellError) as excinfo:
        run_matrix(
            dataset, "pems-bay", ["HistoricalAverage", "NoSuchModel"], scale,
            splits=splits, seed=0, jobs=2,
        )
    error = excinfo.value
    # The bad model failed per-split, after exactly one retry each...
    assert len(error.failures) == len(splits)
    for failure in error.failures:
        assert isinstance(failure, CellFailure)
        assert failure.model_name == "NoSuchModel"
        assert failure.attempts == 2
        assert failure.error_type == "KeyError"
        assert "NoSuchModel" in failure.message
        assert failure.traceback  # carried for debugging
    # ...and every healthy cell still completed.
    completed_models = {key[0] for key in error.completed}
    assert completed_models == {"HistoricalAverage"}
    assert len(error.completed) == len(splits)


# ----------------------------------------------------------------------
# Shared-store topology
# ----------------------------------------------------------------------
def test_workers_share_one_disk_store(tiny, tmp_path, monkeypatch):
    dataset, scale, splits = tiny
    cache_dir = tmp_path / "sweep-cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    reset_store()

    first = run_matrix(
        dataset, "pems-bay", ["STSM"], scale,
        splits=splits, seeds=(0, 1), jobs=2, cache_store=True,
    )
    # Workers persisted their fit artifacts into the shared directory...
    # (segment names are seg-{time_ns}-{pid}-{token}-{namespace}.npz).
    segments = [path.name for path in cache_dir.glob("seg-*.npz")]
    assert segments
    writer_pids = {name.split("-")[2] for name in segments}
    assert os.getpid() not in {int(p) for p in writer_pids}  # written by workers
    # ...and the parent's store indexed them without a restart.
    assert active_store(True).stats["totals"]["disk_items"] > 0

    # A second parallel sweep over the same grid reuses the artifacts and
    # reproduces the metrics bit-for-bit (store hits are bit-exact).
    reset_store()
    second = run_matrix(
        dataset, "pems-bay", ["STSM"], scale,
        splits=splits, seeds=(0, 1), jobs=2, cache_store=True,
    )
    assert _flatten(first) == _flatten(second)

    # And the store-disabled serial sweep agrees too: the shared store
    # never changes metrics.
    reset_store()
    monkeypatch.delenv("REPRO_CACHE_DIR")
    plain = run_matrix(
        dataset, "pems-bay", ["STSM"], scale,
        splits=splits, seeds=(0, 1), jobs=1, cache_store=False,
    )
    assert _flatten(plain) == _flatten(first)


def test_refresh_disk_index_sees_concurrent_writer(tmp_path):
    shared = tmp_path / "shared"
    reader = ArtifactStore(disk_dir=shared)

    writer = ArtifactStore(disk_dir=shared)
    value = np.arange(6.0)
    writer.put("dtw_pair", b"k" * 16, 3.5)
    writer.put("mask_fill", b"m" * 16, value)
    writer.persist()

    # The reader indexed the (then-empty) directory at construction.
    assert reader.get("dtw_pair", b"k" * 16) is None
    added = reader.refresh_disk_index()
    assert added == 2
    assert reader.get("dtw_pair", b"k" * 16) == 3.5
    np.testing.assert_array_equal(reader.get("mask_fill", b"m" * 16), value)
    # Idempotent: nothing new on a second refresh.
    assert reader.refresh_disk_index() == 0


def test_refresh_disk_index_noop_without_disk_tier():
    store = ArtifactStore()
    assert store.refresh_disk_index() == 0


# ----------------------------------------------------------------------
# Satellite regression: no redundant persist at sweep end
# ----------------------------------------------------------------------
def test_run_matrix_issues_no_sweep_end_persist(tiny, tmp_path, monkeypatch):
    dataset, scale, splits = tiny
    calls = []
    original = ArtifactStore.persist

    def counting_persist(self):
        calls.append(True)
        return original(self)

    monkeypatch.setattr(ArtifactStore, "persist", counting_persist)
    open_store(StoreConfig(disk_dir=tmp_path / "persist-count"))

    # Naive model: nothing store-backed happens in the sweep loop
    # itself, so run_matrix must not issue a sweep-end flush.
    run_matrix(
        dataset, "pems-bay", ["HistoricalAverage"], scale,
        splits=splits[:1], seed=0, cache_store=True,
    )
    assert calls == []
