"""Checkpoint bundles and the multi-worker launcher."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import STSMConfig, STSMForecaster
from repro.data import WindowSpec, space_split, temporal_split
from repro.data.synthetic import make_dataset
from repro.evaluation import forecast_window_starts
from repro.serving.transport import (
    BundleEntry,
    ForecastClient,
    ServeConfig,
    load_bundle,
    run_worker,
    save_bundle,
)

_RECIPE = {"name": "pems-bay", "num_sensors": 10, "num_days": 1, "seed": 11}


@pytest.fixture(scope="module")
def fitted():
    """One tiny fitted STSM plus its data context and window pool."""
    dataset = make_dataset(_RECIPE["name"], num_sensors=_RECIPE["num_sensors"],
                           num_days=_RECIPE["num_days"], seed=_RECIPE["seed"])
    split = space_split(dataset.coords, "horizontal")
    spec = WindowSpec(input_length=8, horizon=8)
    train_ix, _ = temporal_split(dataset.num_steps)
    config = STSMConfig(hidden_dim=8, num_blocks=1, tcn_levels=2, gcn_depth=1,
                        epochs=1, patience=1, batch_size=8, window_stride=8,
                        top_k=5, seed=_RECIPE["seed"])
    model = STSMForecaster(config)
    model.fit(dataset, split, spec, train_ix)
    starts = forecast_window_starts(dataset, spec, max_windows=6)
    return model, starts


@pytest.fixture(scope="module")
def bundle_dir(fitted, tmp_path_factory):
    model, starts = fitted
    directory = tmp_path_factory.mktemp("bundle")
    save_bundle(directory, {
        "stsm/pems-bay": BundleEntry(
            forecaster=model,
            dataset=dict(_RECIPE),
            warmup_starts=[int(s) for s in starts],
        ),
    })
    return directory


class TestBundle:
    def test_manifest_shape(self, bundle_dir):
        manifest = json.loads((bundle_dir / "manifest.json").read_text())
        entry = manifest["models"]["stsm/pems-bay"]
        assert entry["dataset"] == _RECIPE
        assert (bundle_dir / entry["checkpoint"]).exists()
        assert len(entry["warmup_starts"]) == 6
        assert set(entry["split"]) == {"train", "validation", "test", "name"}

    def test_restored_predictions_bitwise(self, fitted, bundle_dir):
        model, starts = fitted
        restored, warmup = load_bundle(bundle_dir)["stsm/pems-bay"]
        assert warmup == [int(s) for s in starts]
        assert np.array_equal(model.predict(starts), restored.predict(starts))

    def test_split_context_restored(self, fitted, bundle_dir):
        model, _starts = fitted
        restored, _ = load_bundle(bundle_dir)["stsm/pems-bay"]
        assert np.array_equal(restored.split.unobserved, model.split.unobserved)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest.json"):
            load_bundle(tmp_path)

    def test_unfitted_model_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_bundle(tmp_path, {
                "x": BundleEntry(forecaster=STSMForecaster(),
                                 dataset={"name": "pems-bay"}),
            })

    def test_recipe_without_name_rejected(self, fitted, tmp_path):
        model, _ = fitted
        with pytest.raises(ValueError, match="dataset 'name'"):
            save_bundle(tmp_path, {"x": BundleEntry(forecaster=model, dataset={})})


class TestWorker:
    def test_run_worker_serves_and_drains(self, fitted, bundle_dir, tmp_path):
        """Boot a worker in-thread: warm-up, readiness, serving, drain."""
        model, starts = fitted
        config = ServeConfig(
            checkpoint_dir=str(bundle_dir), port=0, state_dir=str(tmp_path),
        )
        stop = threading.Event()
        worker = threading.Thread(
            target=run_worker, args=(config,),
            kwargs={"stop_event": stop, "reuse_port": False}, daemon=True,
        )
        worker.start()
        try:
            state_path = tmp_path / "worker-0.json"
            deadline = time.monotonic() + 60
            while not state_path.exists():
                assert time.monotonic() < deadline, "worker never became ready"
                time.sleep(0.05)
            state = json.loads(state_path.read_text())
            assert state["models"] == ["stsm/pems-bay"]
            assert state["control_port"] != state["port"]
            with ForecastClient("127.0.0.1", state["port"]) as client:
                assert client.wait_ready(10.0)
                block = client.forecast_one("stsm/pems-bay", int(starts[0]))
                # Warm-up went through the scheduler path, so the served
                # block is the warmed cache entry; certify it against a
                # replay of the worker's own logged batch compositions.
                replay = {}
                for batch in client.batch_log("stsm/pems-bay"):
                    direct = model.predict(batch)
                    for row, start in enumerate(batch):
                        replay.setdefault(int(start), direct[row])
                assert np.array_equal(block, replay[int(starts[0])])
                stats = client.stats()
                assert stats["runtime"]["totals"]["completed"] >= len(starts)
        finally:
            stop.set()
            worker.join(timeout=30)
        assert not worker.is_alive()
        assert not state_path.exists()  # removed on graceful exit


@pytest.mark.slow
class TestLauncherProcess:
    def test_sigterm_drains_multi_worker_fleet(self, bundle_dir, tmp_path):
        """Full launcher path: spawn 2 SO_REUSEPORT workers, query, SIGTERM."""
        if not hasattr(__import__("socket"), "SO_REUSEPORT"):
            pytest.skip("platform lacks SO_REUSEPORT")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serving", "serve",
             "--checkpoint-dir", str(bundle_dir), "--port", "0",
             "--workers", "2", "--state-dir", str(tmp_path)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            deadline = time.monotonic() + 120
            state_files = []
            while time.monotonic() < deadline:
                state_files = sorted(tmp_path.glob("worker-*.json"))
                if len(state_files) == 2:
                    break
                assert proc.poll() is None, proc.stdout.read()
                time.sleep(0.2)
            assert len(state_files) == 2, "workers never became ready"
            infos = [json.loads(f.read_text()) for f in state_files]
            # Both workers share the public port; control ports differ.
            assert infos[0]["port"] == infos[1]["port"]
            assert infos[0]["control_port"] != infos[1]["control_port"]
            with ForecastClient("127.0.0.1", infos[0]["port"]) as client:
                assert client.wait_ready(10.0)
                assert client.models() == ["stsm/pems-bay"]
                starts = json.loads(
                    (bundle_dir / "manifest.json").read_text()
                )["models"]["stsm/pems-bay"]["warmup_starts"]
                block = client.forecast_one("stsm/pems-bay", starts[0])
                assert block.shape[0] == 8
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        assert sorted(tmp_path.glob("worker-*.json")) == []


class TestBundleCache:
    """Bundles carrying an exported artifact store boot hot."""

    @pytest.fixture()
    def warm_bundle_dir(self, fitted, tmp_path):
        from repro.engine import ArtifactStore
        from repro.serving import ForecastService

        model, starts = fitted
        store = ArtifactStore()
        # Park the warm-up blocks in the store through the serving path.
        ForecastService(model, store=store).forecast(np.asarray(starts))
        save_bundle(tmp_path, {
            "stsm/pems-bay": BundleEntry(
                forecaster=model,
                dataset=dict(_RECIPE),
                warmup_starts=[int(s) for s in starts],
            ),
        }, store=store)
        return tmp_path

    def test_cache_dir_discovered(self, warm_bundle_dir):
        from repro.serving.transport.workers import bundle_cache_dir

        assert bundle_cache_dir(warm_bundle_dir) == warm_bundle_dir / "cache"
        manifest = json.loads((warm_bundle_dir / "manifest.json").read_text())
        assert manifest["cache"]["dir"] == "cache"
        assert manifest["cache"]["entries"] > 0

    def test_bundle_without_cache_reads_as_cold(self, bundle_dir):
        from repro.serving.transport.workers import bundle_cache_dir

        assert bundle_cache_dir(bundle_dir) is None

    def test_worker_boots_hot_and_bitwise(self, fitted, warm_bundle_dir):
        """Warm-up served from the bundle cache: zero recomputes, and the
        served bytes equal the training process's direct predict bytes."""
        from repro.serving.transport.workers import _build_runtime

        model, starts = fitted
        runtime, warmups = _build_runtime(ServeConfig(checkpoint_dir=str(warm_bundle_dir)))
        with runtime:
            key = "stsm/pems-bay"
            runtime.warm_up(key, np.asarray(warmups[key], dtype=int))
            stats = runtime.stats(key)["service"]
            assert stats["windows_computed"] == 0
            assert stats["cache_hits"] == len(warmups[key])
            served = runtime.forecast(key, np.asarray(starts[:2], dtype=int))
        direct = model.predict(np.asarray(starts, dtype=int))
        assert served.tobytes() == direct[:2].tobytes()

    def test_deleted_cache_degrades_to_cold_boot(self, fitted, warm_bundle_dir):
        import shutil

        from repro.serving.transport.workers import _build_runtime

        shutil.rmtree(warm_bundle_dir / "cache")
        runtime, warmups = _build_runtime(ServeConfig(checkpoint_dir=str(warm_bundle_dir)))
        with runtime:
            key = "stsm/pems-bay"
            runtime.warm_up(key, np.asarray(warmups[key], dtype=int))
            assert runtime.stats(key)["service"]["windows_computed"] == len(warmups[key])

    def test_scopeless_model_in_cached_bundle_boots_cold(self, fitted, warm_bundle_dir, monkeypatch):
        """A bundle model with no derivable content scope must still
        serve (cold, private cache) instead of crashing worker boot."""
        import repro.serving.service as service_mod
        import repro.serving.transport.workers as workers_mod

        # The service owns the scope decision (and the private fallback).
        monkeypatch.setattr(service_mod, "default_store_scope", lambda f: None)
        runtime, warmups = workers_mod._build_runtime(
            ServeConfig(checkpoint_dir=str(warm_bundle_dir))
        )
        with runtime:
            key = "stsm/pems-bay"
            runtime.warm_up(key, np.asarray(warmups[key], dtype=int))
            # Cold: recomputed, because the store could not be scoped.
            assert runtime.stats(key)["service"]["windows_computed"] == len(warmups[key])
