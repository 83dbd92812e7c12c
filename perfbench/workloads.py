"""The four workloads: fit, serve_hot, serve_cold and sweep.

Each workload has three phases, driven by ``run.py``:

* ``prepare()`` — one-off set-up that is too costly to repeat (the
  serving workloads fit their model here);
* ``setup()`` — the repeatable set-up, run several times so its median
  is steady; the last one stays live;
* ``measure(seconds, tracer)`` — operations until ``seconds`` have
  passed, returning :class:`Op` records and layer counters;
* ``check()`` — output verification; a mismatch fails the run.

Inputs come only from the seed: the dataset (and, for serving, the
request stream) is generated from it; model seeds and sizes are fixed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from loadgen import call, closed_loop, open_loop, poisson_schedule, quantile, tail_percentile

DATASET = "pems-bay"
MODEL_KEY = "stsm/pems-bay"
#: Fixed epoch count with early stopping off (patience = epochs), so a
#: numeric change cannot change the work a fit does.
FIT_EPOCHS = 1
#: nproc is 2: at most two client connections or sweep jobs.
CONNECTIONS = 2
SWEEP_JOBS = 2
#: serve_hot open-loop rate (requests/s over both connections).
HOT_RATE = 200.0
HOT_POOL = 64
ZIPF_EXPONENT = 1.1
#: serve_cold request size: equals the runtime's default max_batch, so
#: dispatch never waits on the micro-batch deadline.
COLD_WINDOWS = 64
#: Warm-up requests per connection before timing.
HOT_WARMUP = 40
COLD_WARMUP = 4
#: Scratch space inside the checkout (sweep store directories, worker
#: trace dumps).
TMP_DIR = Path(".perfbench_tmp")
HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
WORKER_HOOKS = HERE / "worker_hooks"
SRC = HERE.parent / "src"


@dataclass
class Op:
    """One measured operation."""

    seconds: float
    traced: bool = False
    detail: dict = field(default_factory=dict)


def digest(*arrays) -> str:
    hasher = hashlib.sha256()
    for array in arrays:
        hasher.update(np.ascontiguousarray(np.asarray(array, dtype=np.float64)).tobytes())
    return hasher.hexdigest()


def load_expected() -> dict:
    if EXPECTED_PATH.exists():
        return json.loads(EXPECTED_PATH.read_text())
    return {}


def repeat_ops(op, seconds: float, tracer) -> list[Op]:
    """Run ``op`` until ``seconds`` pass (at least once).

    With a tracer, operations alternate untraced/traced (untraced
    first, at least one of each), so one traced run also yields the
    tracing overhead.
    """
    ops: list[Op] = []
    started = time.monotonic()
    minimum = 2 if tracer is not None else 1
    while len(ops) < minimum or time.monotonic() - started < seconds:
        traced = tracer is not None and len(ops) % 2 == 1
        if tracer is not None:
            tracer.enabled = traced
        try:
            result = op()
        finally:
            if tracer is not None:
                tracer.enabled = False
        result.traced = traced
        ops.append(result)
    return ops


# ----------------------------------------------------------------------
# fit
# ----------------------------------------------------------------------
class FitWorkload:
    """One STSM fit, then ``predict`` over every test window."""

    name = "fit"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ops: list[Op] = []
        self.warmup: list[Op] = []

    def prepare(self) -> None:
        """One untimed fit: lazy initialisation (BLAS thread pool, first
        allocations) makes a process's first fit up to 20% slower."""
        self.setup()
        self.warmup = [self._op()]

    def setup(self) -> None:
        from repro.data import space_split, temporal_split
        from repro.evaluation import forecast_window_starts
        from repro.experiments.configs import get_scale
        from repro.experiments.runners import build_dataset

        self.scale = get_scale("small")
        self.dataset = build_dataset(DATASET, self.scale, seed=self.seed)
        self.split = space_split(self.dataset.coords, "horizontal")
        self.spec = self.scale.window_spec(DATASET)
        self.train_steps, _ = temporal_split(self.dataset.num_steps)
        self.starts = forecast_window_starts(self.dataset, self.spec)

    def _op(self) -> Op:
        from repro.experiments.runners import build_model

        model = build_model(
            "STSM", DATASET, self.scale, num_observed=len(self.split.observed),
            seed=0, epochs=FIT_EPOCHS, patience=FIT_EPOCHS, cache_store=False,
        )
        began = time.monotonic()
        report = model.fit(self.dataset, self.split, self.spec, self.train_steps)
        fitted = time.monotonic()
        predictions = model.predict(self.starts)
        ended = time.monotonic()
        return Op(ended - began, detail={
            "fit_s": fitted - began,
            "predict_s": ended - fitted,
            "history": [float(x) for x in report.history],
            "predict_sha256": digest(predictions),
            "dtw_cache": dict(model._dtw_cache.stats),
            "mask_cache": dict(model._mask_cache.stats),
        })

    def measure(self, seconds: float, tracer) -> list[Op]:
        self.ops = repeat_ops(self._op, seconds, tracer)
        return self.ops

    def check(self) -> tuple[bool, str]:
        outputs = {(json.dumps(op.detail["history"]), op.detail["predict_sha256"])
                   for op in self.warmup + self.ops}
        if len(outputs) != 1:
            return False, "fits of one seed disagree (loss history or predictions)"
        recorded = load_expected().get("fit", {}).get(str(self.seed))
        if recorded is None:
            return True, "unrecorded seed: repeated fits agree bitwise"
        history, sha = next(iter(outputs))
        if json.loads(history) != recorded["history"] or sha != recorded["predict_sha256"]:
            return False, "loss history or prediction sha256 differs from expected.json"
        return True, "loss history and prediction sha256 match expected.json"

    def record(self) -> dict:
        op = self.ops[0]
        return {"history": op.detail["history"], "predict_sha256": op.detail["predict_sha256"]}

    def layer_metrics(self, tracer) -> dict:
        traced = [op for op in self.ops if op.traced]
        plain = [op for op in self.ops if not op.traced]
        n = len(traced)
        out = fit_layers(tracer, n)
        dtw = [op.detail["dtw_cache"] for op in traced]
        mask = [op.detail["mask_cache"] for op in traced]
        out["engine.dtw_pair_hit_ratio"] = _ratio(dtw)
        out["engine.mask_fill_hit_ratio"] = _ratio(mask)
        roots = tracer.inclusive("core.model.fit") + tracer.inclusive("core.model.predict")
        root_self = tracer.self_time("core.model.fit") + tracer.self_time("core.model.predict")
        out["unattributed_share"] = root_self / roots if roots else 0.0
        out["trace_overhead"] = _overhead(plain, traced)
        return out


def _ratio(stats: list[dict]) -> float:
    hits = sum(s.get("hits", 0) for s in stats)
    misses = sum(s.get("misses", 0) for s in stats)
    return hits / (hits + misses) if hits + misses else 0.0


def _overhead(plain: list[Op], traced: list[Op]) -> float:
    if not plain or not traced:
        return 0.0
    base = float(np.median([op.seconds for op in plain]))
    return float(np.median([op.seconds for op in traced])) / base - 1.0


#: Backend ops reported by name, with the phases they run in; all other
#: time folds into ``backend.other``.  Chosen as the ops making up the
#: top 90% of backend time on ``fit`` (numpy_ref: the ROADMAP's
#: ``tensordot`` is a numpy_fused op and does not appear here).
BACKEND_OPS = {
    "conv1d_backward": ("bwd",),
    "matmul": ("fwd", "bwd"),
    "conv1d_apply": ("fwd",),
    "maximum_backward": ("bwd",),
    "sum": ("fwd", "bwd"),
    "sigmoid": ("fwd",),
    "sigmoid_backward": ("bwd",),
    "multiply": ("fwd", "bwd"),
    "copy_cast": ("bwd",),
    "iadd": ("bwd",),
    "add": ("fwd",),
    "relu_backward": ("bwd",),
}


def fit_layers(tracer, per: int) -> dict:
    """Fit-layer totals from the tracer, per traced operation."""
    per = max(per, 1)
    out = {
        "temporal.build_dtw_adjacency_s": tracer.inclusive("temporal.build_dtw_adjacency"),
        "engine.trainer.epoch_start_s": tracer.inclusive("engine.trainer.epoch_start"),
        "engine.trainer.run_epoch_s": tracer.inclusive("engine.trainer.run_epoch"),
        "engine.trainer.validate_s": tracer.inclusive("engine.trainer.validate"),
        "core.pseudo.fill_s": tracer.inclusive("core.pseudo.fill"),
        "core.tcn.fwd_s": tracer.inclusive("core.tcn.fwd"),
        "core.gcn.fwd_s": tracer.inclusive("core.gcn.fwd"),
        "core.network.fwd_self_s": tracer.self_time("core.network.fwd"),
        "nn.loss.fwd_s": tracer.inclusive("nn.loss.fwd"),
        "autograd.backward_s": tracer.inclusive("autograd.backward"),
        "optim.step_s": tracer.inclusive("optim.step") + tracer.inclusive("optim.clip"),
    }
    out = {name: value / per for name, value in out.items()}
    out["temporal.dtw_pairs_computed"] = tracer.calls("temporal.dtw_pairs") / per
    other = {"fwd": 0.0, "bwd": 0.0}
    for name, (calls, _inclusive, self_s) in tracer.snapshot().items():
        if not name.startswith("backend."):
            continue
        _, op, phase = name.split(".")
        if op in BACKEND_OPS:
            key = f"backend.{op}.calls"
            out[key] = out.get(key, 0.0) + calls / per
        if phase in BACKEND_OPS.get(op, ()):
            out[f"backend.{op}.{phase}_s"] = self_s / per
        else:
            other[phase] += self_s / per
    out["backend.other.fwd_s"] = other["fwd"]
    out["backend.other.bwd_s"] = other["bwd"]
    return out


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------
class _ServeWorkload:
    """In-process HTTP server over a ``ServingRuntime`` with shipped
    defaults (2 ms deadline, max_batch 64, cache fast path off)."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = np.random.default_rng([seed, 11])
        self.live = None
        self.samples = []
        self.warmup = []
        self.served: list[tuple[int, str]] = []
        self.service_delta: dict = {}

    def prepare(self) -> None:
        """Data and one fit; serving cost depends on the architecture,
        not the weights, so one epoch is enough."""
        from repro.data import space_split, temporal_split
        from repro.experiments.configs import get_scale
        from repro.experiments.runners import build_dataset, build_model

        scale = get_scale("small")
        dataset = build_dataset(DATASET, scale, seed=self.seed)
        split = space_split(dataset.coords, "horizontal")
        spec = scale.window_spec(DATASET)
        train_steps, _ = temporal_split(dataset.num_steps)
        self.model = build_model(
            "STSM", DATASET, scale, num_observed=len(split.observed),
            seed=0, epochs=1, patience=1, cache_store=False,
        )
        self.model.fit(dataset, split, spec, train_steps)
        self.all_starts = np.arange(dataset.num_steps - spec.total + 1)

    def setup(self) -> None:
        from repro.serving import ServingRuntime
        from repro.serving.transport import ForecastClient, ForecastHTTPServer

        self.teardown()
        runtime = ServingRuntime(log_batches=True)
        runtime.register(MODEL_KEY, self.model)
        server = ForecastHTTPServer(runtime).start()
        self.warm_cache(runtime)
        server.set_ready()
        clients = [
            ForecastClient("127.0.0.1", server.port, retries=0, trace=False)
            for _ in range(CONNECTIONS)
        ]
        for client in clients:
            if not client.wait_ready(timeout=30.0):
                raise RuntimeError("server never became ready")
        self.live = (runtime, server, clients)
        self.served = []
        self.warmup = self.warm_traffic(clients)

    def teardown(self) -> None:
        if self.live is None:
            return
        runtime, server, clients = self.live
        for client in clients:
            client.close()
        server.shutdown()
        runtime.shutdown()
        self.live = None

    def warm_cache(self, runtime) -> None:
        pass

    def record_block(self, sample) -> None:
        if not sample.ok:
            return
        starts = np.atleast_1d(np.asarray(sample.item))
        blocks = sample.result.reshape((len(starts),) + sample.result.shape[-2:])
        for start, block in zip(starts, blocks):
            self.served.append((int(start), _block_digest(block)))

    def service_stats(self) -> dict:
        runtime = self.live[0]
        return dict(runtime.scheduler(MODEL_KEY).service.stats)

    def _traced_halves(self, run_half, seconds: float, tracer):
        if tracer is None:
            return run_half(seconds, None)
        first = run_half(seconds / 2.0, None)
        before = self.service_stats()
        tracer.enabled = True
        try:
            second = run_half(seconds / 2.0, True)
        finally:
            tracer.enabled = False
        after = self.service_stats()
        self.service_delta = {
            key: after[key] - before[key]
            for key in ("requests", "cache_hits", "predict_calls", "windows_computed")
        }
        return first + second

    def check(self) -> tuple[bool, str]:
        from repro.serving.service import BATCH_LOG_MAXLEN

        runtime, _server, _clients = self.live
        runtime.drain()
        batches = [b.copy() for b in runtime.scheduler(MODEL_KEY).service.batch_log]
        self.teardown()
        if len(batches) >= BATCH_LOG_MAXLEN:
            return False, "batch log overflowed; replay cannot cover every served block"
        candidates: dict[int, set] = {}
        for batch in batches:
            block = self.model.predict(batch)
            for row, start in enumerate(batch):
                candidates.setdefault(int(start), set()).add(_block_digest(block[row]))
        bad = sum(1 for start, d in self.served if d not in candidates.get(start, ()))
        if bad:
            return False, f"{bad} of {len(self.served)} served blocks differ from direct predict"
        return True, (f"{len(self.served)} served blocks equal direct predict of "
                      f"{len(batches)} logged batches")

    def layer_metrics(self, tracer) -> dict:
        traced = [s for s in self.samples if s.traced]
        requests = max(len(traced), 1)
        ms = 1e3 / requests
        client = tracer.inclusive("transport.client_request")
        codec_c = tracer.inclusive("transport.client_codec")
        handle = tracer.inclusive("transport.http_handle")
        windows = tracer.calls("scheduler.queue_wait")
        delta = self.service_delta
        out = {
            "transport.client_codec_ms": codec_c * ms,
            "transport.server_codec_ms": tracer.inclusive("transport.server_codec") * ms,
            "transport.http_handle_ms": handle * ms,
            "transport.wire_ms": (client - codec_c - handle) * ms,
            "scheduler.queue_wait_ms": (
                1e3 * tracer.inclusive("scheduler.queue_wait") / windows if windows else 0.0
            ),
            "scheduler.batch_size_mean": windows / max(tracer.calls("scheduler.batch"), 1),
            "service.cache_hit_ratio": (
                delta["cache_hits"] / delta["requests"] if delta.get("requests") else 0.0
            ),
            "service.predict_ms": (
                1e3 * tracer.inclusive("core.model.predict")
                / max(tracer.calls("core.model.predict"), 1)
            ),
            "service.windows_per_predict": (
                delta["windows_computed"] / delta["predict_calls"]
                if delta.get("predict_calls") else 0.0
            ),
        }
        out.update(fit_layers(tracer, requests))
        late = [s.lateness for s in traced]
        pct = tail_percentile(len(late))
        out["loadgen.late_p99_ms"] = 1e3 * quantile(late, pct / 100.0) if pct and late else 0.0
        # The request root is due time -> completion; the client span
        # covers the wire round trip, and generator lateness is the
        # generator's own layer.  What is left is unattributed.
        total = sum(s.latency for s in traced if s.ok)
        attributed = client + sum(s.lateness for s in traced)
        out["unattributed_share"] = max(total - attributed, 0.0) / total if total else 0.0
        plain = [s.latency for s in self.samples if not s.traced and s.ok]
        on = [s.latency for s in traced if s.ok]
        out["trace_overhead"] = (
            float(np.median(on)) / float(np.median(plain)) - 1.0 if plain and on else 0.0
        )
        return out


def _block_digest(block: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(block).tobytes()).hexdigest()


class ServeHotWorkload(_ServeWorkload):
    """Open loop of single-window requests over a fully warmed pool."""

    name = "serve_hot"

    def prepare(self) -> None:
        super().prepare()
        self.pool = self.rng.choice(self.all_starts, HOT_POOL, replace=False)
        weights = 1.0 / np.arange(1, HOT_POOL + 1) ** ZIPF_EXPONENT
        self.popularity = weights / weights.sum()

    def draw(self, rng, count: int) -> np.ndarray:
        return self.pool[rng.choice(HOT_POOL, size=count, p=self.popularity)]

    def warm_cache(self, runtime) -> None:
        runtime.warm_up(MODEL_KEY, self.pool)

    def warm_traffic(self, clients):
        senders = [self._sender(c) for c in clients]
        rng = np.random.default_rng([self.seed, 12])
        items = [self.draw(rng, HOT_WARMUP) for _ in clients]
        return _closed_items(senders, items, self.record_block)

    def _sender(self, client):
        return lambda start: client.forecast_one(MODEL_KEY, int(start))

    def measure(self, seconds: float, tracer) -> list:
        clients = self.live[2]
        senders = [self._sender(c) for c in clients]
        rng = np.random.default_rng([self.seed, 20])

        def run_half(span: float, traced):
            offsets = poisson_schedule(rng, HOT_RATE, span)
            samples = open_loop(senders, offsets, self.draw(rng, len(offsets)),
                                time.monotonic() + 0.01, self.record_block)
            for sample in samples:
                sample.traced = bool(traced)
            return samples

        self.samples = self._traced_halves(run_half, seconds, tracer)
        return self.samples


class ServeColdWorkload(_ServeWorkload):
    """Closed loop of 64-window requests drawn uniformly from a pool
    over four times the result cache, so most windows miss."""

    name = "serve_cold"

    def prepare(self) -> None:
        super().prepare()
        self.pool = self.all_starts

    def _sender(self, client):
        return lambda starts: client.forecast(MODEL_KEY, starts)

    def warm_traffic(self, clients):
        rng = np.random.default_rng([self.seed, 12])
        items = [[rng.choice(self.pool, COLD_WINDOWS, replace=False)
                  for _ in range(COLD_WARMUP)] for _ in clients]
        return _closed_items([self._sender(c) for c in clients], items, self.record_block)

    def measure(self, seconds: float, tracer) -> list:
        clients = self.live[2]
        senders = [self._sender(c) for c in clients]
        rngs = [np.random.default_rng([self.seed, 20 + i]) for i in range(CONNECTIONS)]

        def run_half(span: float, traced):
            samples = closed_loop(
                senders,
                lambda i: rngs[i].choice(self.pool, COLD_WINDOWS, replace=False),
                time.monotonic() + span,
                self.record_block,
            )
            for sample in samples:
                sample.traced = bool(traced)
            return samples

        self.samples = self._traced_halves(run_half, seconds, tracer)
        return self.samples


def _closed_items(senders, items, on_sample):
    """Send fixed per-connection item lists back to back (warm-up)."""
    samples = []
    for send, per_connection in zip(senders, items):
        for item in per_connection:
            now = time.monotonic()
            sample = call(send, item, now, now)
            on_sample(sample)
            samples.append(sample)
    return samples


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
SWEEP_MODELS = ("STSM", "GE-GAN", "HistoricalAverage")


class SweepWorkload:
    """``run_matrix(jobs=2)`` over a mixed grid, fresh store each time."""

    name = "sweep"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ops: list[Op] = []
        self.warmup: list[Op] = []

    def prepare(self) -> None:
        """One untimed sweep: the first in a process pays one-off
        imports and initialisation the later ones do not."""
        self.setup()
        self.warmup = [self.run_grid(SWEEP_JOBS)]

    def setup(self) -> None:
        from repro.data.synthetic import make_dataset
        from repro.experiments.configs import get_scale
        from repro.experiments.runners import splits_for

        bench = get_scale("bench")
        sensors, days, epochs = 24, 2, 3
        self.scale = dataclasses.replace(
            bench,
            dataset_sizes={DATASET: (sensors, days)},
            split_kinds=("horizontal", "vertical"),
            stsm={**bench.stsm, "epochs": epochs, "patience": epochs},
            gegan={"iterations": 150},
            max_test_windows=4,
        )
        self.dataset = make_dataset(DATASET, num_sensors=sensors, num_days=days, seed=self.seed)
        self.splits = splits_for(self.dataset, self.scale)

    def run_grid(self, jobs: int, tracer=None) -> Op:
        from repro.engine import StoreConfig, open_store, reset_store
        from repro.experiments.runners import run_matrix

        store_dir = TMP_DIR / f"sweep-{os.getpid()}-{len(self.ops)}-{jobs}"
        shutil.rmtree(store_dir, ignore_errors=True)
        dumps = store_dir.with_name(store_dir.name + "-trace")
        traced = tracer is not None and tracer.enabled
        saved_env = {k: os.environ.get(k) for k in ("PERFBENCH_WORKER_OUT", "PYTHONPATH")}
        if traced:
            dumps.mkdir(parents=True, exist_ok=True)
            os.environ["PERFBENCH_WORKER_OUT"] = str(dumps.resolve())
            os.environ["PYTHONPATH"] = os.pathsep.join(
                [str(WORKER_HOOKS), str(SRC)]
            )
        reset_store()
        store = open_store(StoreConfig(disk_dir=store_dir))
        try:
            began = time.monotonic()
            matrix = run_matrix(
                self.dataset, DATASET, list(SWEEP_MODELS), self.scale,
                splits=self.splits, seeds=(0, 1), jobs=jobs, cache_store=True,
            )
            seconds = time.monotonic() - began
            totals = store.stats["totals"]
        finally:
            reset_store()
            for key, value in saved_env.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
            shutil.rmtree(store_dir, ignore_errors=True)
        workers = []
        if traced:
            # Pool workers write their dumps as they exit, which may be
            # after run_matrix has returned.
            pids = {r.extra["sweep"]["worker_pid"]
                    for info in matrix.values() for r in info["results"]}
            paths = [dumps / f"{pid}.json" for pid in sorted(pids)]
            deadline = time.monotonic() + 60.0
            while not all(p.exists() for p in paths) and time.monotonic() < deadline:
                time.sleep(0.05)
            workers = [json.loads(p.read_text()) for p in paths if p.exists()]
            shutil.rmtree(dumps, ignore_errors=True)
        cells: dict[str, float] = {}
        for model_name, info in matrix.items():
            cells[model_name] = float(
                sum(r.extra["sweep"]["cell_seconds"] for r in info["results"])
            )
        return Op(seconds, detail={
            "metrics_sha256": _sweep_digest(matrix),
            "cell_seconds": cells,
            "disk_bytes": totals["disk_bytes"],
            "workers": workers,
        })

    def measure(self, seconds: float, tracer) -> list[Op]:
        self.ops = repeat_ops(lambda: self.run_grid(SWEEP_JOBS, tracer), seconds, tracer)
        return self.ops

    def check(self) -> tuple[bool, str]:
        shas = {op.detail["metrics_sha256"] for op in self.warmup + self.ops}
        if len(shas) != 1:
            return False, "repeated parallel sweeps disagree"
        recorded = load_expected().get("sweep", {}).get(str(self.seed))
        if recorded is None:
            recorded = self.run_grid(1).detail["metrics_sha256"]
            source = "a serial run of the same grid"
        else:
            source = "the serial reference in expected.json"
        if shas != {recorded}:
            return False, f"parallel metrics sha differs from {source}"
        return True, f"parallel metrics sha equals {source}"

    def record(self) -> str:
        return self.run_grid(1).detail["metrics_sha256"]

    def layer_metrics(self, tracer) -> dict:
        traced = [op for op in self.ops if op.traced]
        plain = [op for op in self.ops if not op.traced]
        n = max(len(traced), 1)
        wall = sum(op.seconds for op in traced)
        cell_sum = sum(sum(op.detail["cell_seconds"].values()) for op in traced)
        out = {
            "parallel.cell_s_sum": cell_sum / n,
            "parallel.idle_share": 1.0 - cell_sum / (SWEEP_JOBS * wall) if wall else 0.0,
            "engine.store.disk_bytes": float(np.mean([op.detail["disk_bytes"] for op in traced])),
        }
        for model_name in SWEEP_MODELS:
            out[f"parallel.cell_s.{model_name}"] = sum(
                op.detail["cell_seconds"].get(model_name, 0.0) for op in traced
            ) / n
        hits = disk_hits = lookups = 0
        for op in traced:
            for worker in op.detail["workers"]:
                tracer.merge(worker["totals"])
                store = worker.get("store") or {}
                disk_hits += store.get("disk_hits", 0)
                hits += store.get("hits", 0)
                lookups += store.get("hits", 0) + store.get("misses", 0)
        out["engine.store.disk_hit_ratio"] = disk_hits / lookups if lookups else 0.0
        out.update(fit_layers(tracer, n))
        out["unattributed_share"] = out["parallel.idle_share"]
        out["trace_overhead"] = _overhead(plain, traced)
        return out


def _sweep_digest(matrix: dict) -> str:
    flat = {}
    for model_name in sorted(matrix):
        info = matrix[model_name]
        metrics = info["metrics"]
        flat[model_name] = {
            "rmse": float(metrics.rmse),
            "mae": float(metrics.mae),
            "mape": float(metrics.mape),
            "r2": float(metrics.r2),
            "histories": [[float(x) for x in r.fit_report.history] for r in info["results"]],
        }
    return hashlib.sha256(json.dumps(flat, sort_keys=True).encode()).hexdigest()


WORKLOADS = {
    cls.name: cls
    for cls in (FitWorkload, ServeHotWorkload, ServeColdWorkload, SweepWorkload)
}
