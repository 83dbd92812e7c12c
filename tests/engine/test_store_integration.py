"""Cross-fit integration: the shared store never changes any number.

The contract under test is the one everything else leans on: enabling
the artifact store (memory-only, warm disk, or cold disk in a "new
process") leaves fixed-seed STSM fit metrics and predictions bitwise
identical to per-fit cache isolation, while the second-and-later fits
actually draw on the store.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import STSMConfig, STSMForecaster
from repro.data import WindowSpec, space_split, temporal_split
from repro.data.synthetic import make_pems_bay
from repro.engine import (
    ArtifactStore,
    CACHE_DIR_ENV,
    CACHE_MAX_BYTES_ENV,
    StoreConfig,
    open_store,
    reset_store,
)
from repro.evaluation import forecast_window_starts


@pytest.fixture(autouse=True)
def _isolate(monkeypatch):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    reset_store()
    yield
    reset_store()


def _fit(seed: int, cache_store: bool) -> dict:
    dataset = make_pems_bay(num_sensors=14, num_days=1, seed=3)
    split = space_split(dataset.coords, "horizontal")
    spec = WindowSpec(input_length=6, horizon=6)
    train_ix, _ = temporal_split(dataset.num_steps)
    config = STSMConfig(
        epochs=2, patience=2, hidden_dim=8, num_blocks=1, top_k=5,
        window_stride=4, seed=seed, cache_store=cache_store,
    )
    model = STSMForecaster(config)
    report = model.fit(dataset, split, spec, train_ix)
    starts = forecast_window_starts(dataset, spec, max_windows=3)
    predictions = model.predict(starts)
    return {
        "history": list(report.history),
        "best_val_rmse": float(report.extra["best_val_rmse"]),
        "sha": hashlib.sha256(predictions.tobytes()).hexdigest(),
    }


class TestCrossFitParity:
    def test_store_enabled_metrics_bitwise_identical(self):
        baseline = [_fit(seed, False) for seed in (0, 1)]
        store = open_store()
        warm = [_fit(seed, True) for seed in (0, 1)]
        assert warm == baseline
        totals = store.stats["totals"]
        assert totals["hits"] > 0  # the second fit actually reused pairs

    def test_second_fit_hits_store(self):
        store = open_store()
        _fit(0, True)
        after_first = store.stats["totals"]["hits"]
        _fit(1, True)
        assert store.stats["totals"]["hits"] > after_first

    def test_cold_start_from_disk_identical_and_hot(self, tmp_path):
        baseline = _fit(0, False)
        open_store(StoreConfig(disk_dir=tmp_path))
        warm = _fit(0, True)
        assert warm == baseline

        # "New process": fresh store object, only the disk tier survives.
        reset_store()
        cold_store = open_store(store=ArtifactStore(disk_dir=tmp_path))
        cold = _fit(0, True)
        assert cold == baseline
        totals = cold_store.stats["totals"]
        assert totals["disk_hits"] > 0
        assert totals["misses"] == 0  # an identical fit is fully served

    def test_env_var_opts_whole_process_in(self, tmp_path, monkeypatch):
        baseline = _fit(0, False)
        reset_store()
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        # cache_store=None (the default) must now pick the store up.
        assert _fit(0, None) == baseline
        assert any(tmp_path.glob("seg-*.npz"))  # fit persisted its artifacts

    def test_explicit_false_keeps_isolation(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        _fit(0, False)
        assert not any(tmp_path.glob("seg-*.npz"))


class TestHyperparameterSweepReuse:
    def test_unrelated_hyperparameter_change_still_reuses_pairs(self):
        """DTW pairs depend on data, not on e.g. the contrastive weight."""
        store = open_store()
        dataset = make_pems_bay(num_sensors=14, num_days=1, seed=3)
        split = space_split(dataset.coords, "horizontal")
        spec = WindowSpec(input_length=6, horizon=6)
        train_ix, _ = temporal_split(dataset.num_steps)
        for weight in (0.5, 0.1):
            config = STSMConfig(
                epochs=1, patience=1, hidden_dim=8, num_blocks=1, top_k=5,
                window_stride=4, seed=0, cache_store=True,
                contrastive_weight=weight,
            )
            STSMForecaster(config).fit(dataset, split, spec, train_ix)
        stats = store.stats["namespaces"]["dtw_pair"]
        assert stats["hits"] > 0
        assert np.isfinite(stats["misses"])  # namespace live and counted


#: A 2-seed STSM mini-sweep through ``run_matrix`` on the store that
#: ``$REPRO_CACHE_DIR`` opens; prints its metrics and store totals.
_MINI_SWEEP = textwrap.dedent(
    """
    import dataclasses
    import json

    from repro.data.synthetic import make_dataset
    from repro.engine import active_store
    from repro.experiments.configs import get_scale
    from repro.experiments.runners import run_matrix, splits_for

    bench = get_scale("bench")
    scale = dataclasses.replace(
        bench,
        dataset_sizes={"pems-bay": (22, 2)},
        split_kinds=("horizontal",),
        stsm={**bench.stsm, "epochs": 3, "patience": 3},
        max_test_windows=6,
    )
    dataset = make_dataset("pems-bay", num_sensors=22, num_days=2, seed=7)
    splits = splits_for(dataset, scale)
    metrics = {}
    for seed in (0, 1):
        entry = run_matrix(dataset, "pems-bay", ["STSM"], scale, splits=splits,
                           seed=seed)["STSM"]["metrics"]
        metrics[seed] = [entry.rmse, entry.mae, entry.mape, entry.r2]
    store = active_store(True)
    store.persist()
    print(json.dumps({"metrics": metrics, "stats": store.stats["totals"],
                      "max_bytes": store.max_bytes}))
    """
)


@pytest.mark.slow
def test_second_process_sweep_hits_disk_bitwise_under_quota(tmp_path):
    """Two processes run one mini-sweep on one cache directory.  The
    second, under a byte quota, must take hits off the first's segments
    on disk, reproduce its metrics bit for bit, and leave the segment
    files within the quota."""
    env = {k: v for k, v in os.environ.items() if k != CACHE_MAX_BYTES_ENV}
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env[CACHE_DIR_ENV] = str(tmp_path)

    def sweep(**extra_env) -> dict:
        done = subprocess.run(
            [sys.executable, "-c", _MINI_SWEEP], env={**env, **extra_env},
            capture_output=True, text=True, timeout=600,
        )
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    def segment_bytes() -> int:
        return sum(path.stat().st_size for path in tmp_path.glob("seg-*.npz"))

    first = sweep()
    quota = segment_bytes() // 2  # binds: the reaper must evict
    second = sweep(**{CACHE_MAX_BYTES_ENV: str(quota)})
    assert second["max_bytes"] == quota
    assert second["stats"]["disk_hits"] > 0
    assert second["stats"]["lifecycle"]["evicted_segments"] > 0
    assert second["metrics"] == first["metrics"]
    assert 0 < segment_bytes() <= quota
