"""LiveSwapBridge: blue/green deploys, refit-lag telemetry, no drops."""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.interfaces import FitReport, Forecaster
from repro.serving import ServingRuntime
from repro.streaming import LiveSwapBridge
from repro.streaming.refit import RefitRecord


class _ScaledModel(Forecaster):
    """Toy fitted model whose outputs identify its generation."""

    name = "scaled"

    def __init__(self, scale: float, delay_s: float = 0.0) -> None:
        self.scale = scale
        self.delay_s = delay_s

    def fit(self, dataset, split, spec, train_steps) -> FitReport:
        return FitReport()

    def predict(self, window_starts: np.ndarray) -> np.ndarray:
        if self.delay_s:
            time.sleep(self.delay_s)
        starts = np.asarray(window_starts, dtype=float)
        return starts[:, None, None] + np.zeros((1, 2, 3)) + self.scale


def _record(index: int) -> RefitRecord:
    now = time.monotonic()
    return RefitRecord(
        index=index, window_start=index * 8, window_end=index * 8 + 64,
        fit_seconds=0.2, warm_started=index > 0, epochs=1, best_val_rmse=0.0,
        checkpoint_dir="unused", data_ready_monotonic=now - 0.5,
        fitted_monotonic=now - 0.1,
    )


class TestDeploy:
    def test_first_deploy_registers_then_swaps(self):
        with ServingRuntime() as runtime:
            bridge = LiveSwapBridge(runtime, "live")
            bridge.deploy(_ScaledModel(1000.0))
            assert bridge.live
            assert runtime.forecast("live", np.array([3]))[0, 0, 0] == 1003.0
            bridge.deploy(_ScaledModel(2000.0))
            assert runtime.forecast("live", np.array([3]))[0, 0, 0] == 2003.0
            assert [d["swap"] for d in bridge.deploys] == [False, True]

    def test_streaming_section_reaches_runtime_stats(self):
        with ServingRuntime() as runtime:
            bridge = LiveSwapBridge(runtime, "live")
            bridge.deploy(_ScaledModel(1.0), record=_record(0))
            bridge.deploy(_ScaledModel(2.0), record=_record(1))
            stats = runtime.stats()
            streaming = stats["streaming"]
            assert streaming["model"] == "live"
            assert streaming["deploys"] == 2
            assert streaming["swaps"] == 1
            lag = streaming["refit_lag"]
            assert 0 < lag["last_seconds"] < 10
            assert lag["max_seconds"] >= lag["mean_seconds"] > 0
            assert stats["swaps"]["count"] == 1  # runtime's own swap ledger

    def test_refit_breakdown_recorded_per_deploy(self):
        with ServingRuntime() as runtime:
            bridge = LiveSwapBridge(runtime, "live")
            bridge.deploy(_ScaledModel(1.0), record=_record(0))
            entry = bridge.deploys[0]
            assert entry["refit_index"] == 0
            assert entry["window"] == [0, 64]
            assert entry["refit_lag_seconds"] > entry["fit_lag_seconds"] > 0
            assert entry["swap_seconds"] >= 0


class TestNoDropAcrossSwaps:
    def test_concurrent_load_survives_repeated_swaps(self):
        """The acceptance gate: continuous concurrent traffic across
        several blue/green swaps — zero failed, zero rejected, every
        accepted request answered (the model's counters run on across
        every swap)."""
        with ServingRuntime(max_queue=4096) as runtime:
            bridge = LiveSwapBridge(runtime, "live")
            bridge.deploy(_ScaledModel(0.0, delay_s=0.002))
            errors: list[Exception] = []
            served = [0]
            stop = threading.Event()

            def hammer(worker: int) -> None:
                i = 0
                while not stop.is_set():
                    try:
                        block = runtime.forecast("live", np.array([worker * 1000 + i]))
                        assert block.shape == (1, 2, 3)
                        served[0] += 1  # GIL-atomic int bump
                    except Exception as error:  # noqa: BLE001
                        errors.append(error)
                        return
                    i += 1

            threads = [threading.Thread(target=hammer, args=(w,)) for w in range(4)]
            for thread in threads:
                thread.start()
            for generation in range(1, 6):
                time.sleep(0.05)
                bridge.deploy(_ScaledModel(float(generation), delay_s=0.002))
            time.sleep(0.05)
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not errors, f"request dropped/errored across a swap: {errors[:3]}"
            assert served[0] > 0
            stats = runtime.stats()
            totals = stats["totals"]
            assert stats["swaps"]["count"] == 5
            assert totals["failed"] == 0 and totals["rejected"] == 0
            assert totals["submitted"] == totals["completed"] == served[0]
