"""Serving-throughput benchmark: micro-batched scheduler vs unbatched predicts.

Drives identical deterministic multi-threaded traffic (seeded Zipf
window popularity, closed loop) through two serving strategies over the
same fitted STSM model:

* **unbatched** — one-request-per-``predict`` serving: each client
  thread calls ``model.predict([start])`` directly under a lock (models
  do not declare ``thread_safe_predict``), no batching, no cache;
* **scheduler** — a :class:`~repro.serving.MicroBatchScheduler`
  (dispatch-when-free worker, max-batch cap, bounded queue) draining
  through the cached/coalescing :class:`~repro.serving.ForecastService`.

Both legs must serve **bitwise direct-predict bytes**: the unbatched leg
is re-checked per window against a fresh single-window ``predict``, and
the scheduler leg is certified by replaying its logged batch
compositions through ``model.predict`` directly and comparing every
served block against the replay.  The full run additionally hosts two
models in a :class:`~repro.serving.ServingRuntime` and drives mixed
routed traffic to exercise multi-model serving.

``--wire`` adds the network dimension: the same seeded-Zipf traffic is
replayed over real HTTP through :class:`~repro.serving.loadgen.WireDriver`
clients against

* an **in-process** :class:`~repro.serving.transport.ForecastHTTPServer`
  thread (smoke mode stops here),
* a **1-worker** server process launched from a checkpoint bundle via
  ``python -m repro.serving serve``, and
* an **N-worker** ``SO_REUSEPORT`` fleet (``--wire-workers``, default 4),

measuring end-to-end HTTP throughput/latency against the in-process
scheduler and the single-worker baseline.  Every wire leg is parity
certified: each worker's predict-batch compositions are fetched over
its control port's ``/v1/batch_log`` endpoint and replayed through a
locally restored copy of the same checkpoint — every served block must
be bitwise one of those direct-``predict`` blocks.

Run::

    PYTHONPATH=src python benchmarks/bench_serving_load.py            # full
    PYTHONPATH=src python benchmarks/bench_serving_load.py --smoke    # CI wiring
    PYTHONPATH=src python benchmarks/bench_serving_load.py --wire     # + HTTP legs

Writes ``BENCH_serving.json`` at the repository root (``BENCH_transport
.json`` with ``--wire``; override with ``--output``; ``-`` skips
writing).  Acceptance targets (full mode): scheduler throughput >= 2x
unbatched under >= 8 concurrent client threads; with ``--wire``, the
``--wire-workers``-worker fleet >= 2x single-worker wire throughput on
machines with >= 2 CPUs (on one CPU every worker count saturates the
same core, so the ratio is recorded but not enforced) — all with parity
on every served byte.  Worker-fleet legs report the median of
``--wire-repeats`` runs; all repeats must pass parity.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.backend import get_backend  # noqa: E402
from repro.core import STSMConfig, STSMForecaster  # noqa: E402
from repro.data import WindowSpec, space_split, temporal_split  # noqa: E402
from repro.data.synthetic import make_dataset  # noqa: E402
from repro.evaluation import forecast_window_starts  # noqa: E402
from repro.serving import (  # noqa: E402
    LoadGenerator,
    LoadSpec,
    MicroBatchScheduler,
    ServingRuntime,
    WireDriver,
)
from repro.serving.transport import (  # noqa: E402
    BundleEntry,
    ForecastClient,
    ForecastHTTPServer,
    load_bundle,
    save_bundle,
)

SPEEDUP_TARGET = 2.0
#: Multi-worker wire scaling gate, enforced on machines with >= 2 CPUs
#: where SO_REUSEPORT workers actually multiply compute.  On a single
#: CPU every worker count saturates the same core, so the 4w/1w ratio
#: measures bistable queueing noise, not scaling — there the gate is
#: informational only (the JSON records the CPU count, the applied
#: gate, and every repeat's throughput so the call is auditable).
WIRE_SPEEDUP_TARGET = 2.0
MODEL_KEY = "stsm/pems-bay"


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def fit_model(dataset_name: str, *, sensors: int, days: int, epochs: int,
              hidden: int, seed: int):
    """Fit a small STSM on a synthetic dataset.

    Returns ``(model, starts pool, recipe)`` — the recipe is the
    dataset-rebuild dict a checkpoint bundle needs.
    """
    recipe = {"name": dataset_name, "num_sensors": sensors, "num_days": days,
              "seed": seed}
    dataset = make_dataset(dataset_name, num_sensors=sensors, num_days=days,
                           seed=seed)
    split = space_split(dataset.coords, "horizontal")
    spec = WindowSpec(input_length=8, horizon=8)
    train_ix, _ = temporal_split(dataset.num_steps)
    config = STSMConfig(
        hidden_dim=hidden, num_blocks=1, tcn_levels=2, gcn_depth=1,
        epochs=epochs, patience=epochs, batch_size=8, window_stride=8,
        top_k=min(6, sensors - 1), seed=seed,
    )
    model = STSMForecaster(config)
    model.fit(dataset, split, spec, train_ix)
    starts = forecast_window_starts(dataset, spec, max_windows=64)
    return model, starts, recipe


def run_unbatched(model, pool: np.ndarray, spec: LoadSpec) -> tuple[dict, bool]:
    """One-``predict``-per-request serving from ``spec.num_threads`` threads."""
    lock = threading.Lock()
    thread_safe = getattr(model, "thread_safe_predict", False)

    def serve(start: int) -> np.ndarray:
        if thread_safe:
            return model.predict(np.asarray([start], dtype=int))[0]
        with lock:
            return model.predict(np.asarray([start], dtype=int))[0]

    report = LoadGenerator(pool.tolist(), spec).run(serve)
    reference = {int(s): model.predict(np.asarray([s], dtype=int))[0] for s in pool}
    parity = all(
        np.array_equal(value, reference[int(start)])
        for per_thread in report.results
        for start, value in per_thread
    )
    return report.summary(), parity


def run_scheduled(
    model, pool: np.ndarray, spec: LoadSpec, *, max_batch: int
) -> tuple[dict, bool]:
    """Micro-batched serving; parity certified by batch-log replay."""
    with MicroBatchScheduler(
        model,
        max_batch=max_batch,
        max_queue=4096,
        cache_size=max(256, len(pool)),
        log_batches=True,
        name="bench",
    ) as scheduler:
        report = LoadGenerator(pool.tolist(), spec).run(
            lambda start: scheduler.submit(start).result()
        )
        scheduler.drain()
        stats = scheduler.stats
        batch_log = list(scheduler.service.batch_log)

    # Replay every predict call the service actually issued, directly
    # against the model: each served block must be bitwise one of these
    # direct-predict bytes (first computation wins, as in the cache).
    replay: dict[int, np.ndarray] = {}
    for batch in batch_log:
        block = model.predict(batch)
        for row, start in enumerate(batch):
            replay.setdefault(int(start), block[row])
    parity = all(
        np.array_equal(value, replay[int(start)])
        for per_thread in report.results
        for start, value in per_thread
    )

    summary = report.summary()
    summary["scheduler"] = {
        k: stats[k]
        for k in (
            "submitted", "completed", "rejected", "failed", "batches",
            "avg_batch_size", "max_batch_observed", "peak_queue_depth",
            "throughput_rps",
        )
    }
    summary["scheduler"]["latency"] = stats["latency"]
    service = stats["service"]
    summary["service"] = {
        k: service[k]
        for k in (
            "requests", "cache_hits", "cache_hit_pct", "coalesced",
            "predict_calls", "windows_computed",
        )
    }
    return summary, parity


def run_multi_model(models: dict, spec: LoadSpec) -> dict:
    """Mixed routed traffic across several hosted models."""
    pool = [
        (key, int(start))
        for key, (_model, starts) in sorted(models.items())
        for start in starts[:16]
    ]
    with ServingRuntime(max_queue=4096) as runtime:
        for key, (model, _starts) in models.items():
            runtime.register(key, model)
        report = LoadGenerator(pool, spec).run(
            lambda item: runtime.submit(item[0], item[1]).result(),
            collect_results=False,
        )
        runtime.drain()
        stats = runtime.stats()
    per_model = {
        key: {
            "completed": s["completed"],
            "batches": s["batches"],
            "avg_batch_size": s["avg_batch_size"],
            "p50_ms": s["latency"]["p50_ms"],
            "p99_ms": s["latency"]["p99_ms"],
            "cache_hits": s["service"]["cache_hits"],
        }
        for key, s in stats["models"].items()
    }
    return {**report.summary(), "per_model": per_model, "totals": stats["totals"]}


def _replay_candidates(model, batch_logs: list) -> dict[int, list[np.ndarray]]:
    """Replay logged predict-batch compositions through ``model`` directly.

    Returns every direct-``predict`` block each window start could have
    been served from (a window recomputed in two compositions — e.g. by
    two independent workers — legitimately has two candidates).
    """
    candidates: dict[int, list[np.ndarray]] = {}
    for batch in batch_logs:
        batch = np.asarray(batch, dtype=int)
        block = model.predict(batch)
        for row, start in enumerate(batch):
            candidates.setdefault(int(start), []).append(block[row])
    return candidates


def _wire_parity(report, candidates: dict[int, list[np.ndarray]]) -> bool:
    """Every served block must be bitwise one of the replay candidates."""
    return all(
        any(np.array_equal(value, direct) for direct in candidates.get(int(start), []))
        for per_thread in report.results
        for start, value in per_thread
    )


def run_wire_inprocess(
    model, pool: np.ndarray, spec: LoadSpec, *, max_batch: int
) -> tuple[dict, bool]:
    """HTTP serving from an in-process server thread; replay-certified."""
    with ServingRuntime(
        max_batch=max_batch, max_queue=4096,
        cache_size=max(256, len(pool)), log_batches=True,
    ) as runtime:
        runtime.register(MODEL_KEY, model)
        with ForecastHTTPServer(runtime).start() as server:
            server.set_ready()
            with WireDriver("127.0.0.1", server.port, MODEL_KEY) as driver:
                report = LoadGenerator(pool.tolist(), spec).run(driver)
            runtime.drain()
            stats = runtime.stats(MODEL_KEY)
            batch_log = [b.copy() for b in runtime.scheduler(MODEL_KEY).service.batch_log]
            transport = server.transport_stats()
    parity = _wire_parity(report, _replay_candidates(model, batch_log))
    summary = report.summary()
    summary["transport"] = transport
    summary["scheduler"] = {k: stats[k] for k in ("completed", "batches",
                                                  "avg_batch_size")}
    summary["service"] = {k: stats["service"][k]
                          for k in ("cache_hits", "cache_hit_pct", "predict_calls")}
    return summary, parity


def _start_worker_fleet(bundle_dir: Path, state_dir: Path, workers: int, *,
                        max_batch: int, timeout_s: float = 300.0):
    """Launch ``python -m repro.serving serve`` and wait for readiness.

    Returns ``(process, worker_infos)`` — infos carry the shared public
    port and each worker's private control port.
    """
    # Stale state files from a previous (killed) fleet would satisfy the
    # readiness poll instantly and point the load at zombie workers.
    for stale in state_dir.glob("worker-*.json"):
        stale.unlink()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    argv = [sys.executable, "-m", "repro.serving", "serve",
            "--checkpoint-dir", str(bundle_dir), "--port", "0",
            "--workers", str(workers), "--state-dir", str(state_dir),
            "--max-batch", str(max_batch)]
    process = subprocess.Popen(
        argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    deadline = time.monotonic() + timeout_s
    while True:
        state_files = sorted(state_dir.glob("worker-*.json"))
        if len(state_files) == workers:
            break
        if process.poll() is not None:
            raise RuntimeError(
                f"serve launcher exited early ({process.returncode}):\n"
                f"{process.stdout.read()}"
            )
        if time.monotonic() > deadline:
            process.terminate()
            raise RuntimeError(f"{workers} workers not ready in {timeout_s}s")
        time.sleep(0.1)
    infos = [json.loads(f.read_text()) for f in state_files]
    return process, infos


def run_wire_fleet(
    replay_model, bundle_dir: Path, pool: np.ndarray, spec: LoadSpec, *,
    workers: int, max_batch: int,
) -> tuple[dict, bool]:
    """HTTP serving from ``workers`` processes behind one SO_REUSEPORT port.

    Parity: each worker's logged batch compositions (fetched over its
    control port) are replayed through ``replay_model`` — a local
    restore of the same checkpoint, so identical weights — and every
    client-received block must match one replay block bitwise.
    """
    state_dir = bundle_dir / f"state-{workers}w"
    state_dir.mkdir(exist_ok=True)
    process, infos = _start_worker_fleet(
        bundle_dir, state_dir, workers, max_batch=max_batch,
    )
    try:
        port = infos[0]["port"]
        with ForecastClient("127.0.0.1", port) as probe:
            probe.wait_ready(60.0)
        with WireDriver("127.0.0.1", port, MODEL_KEY) as driver:
            report = LoadGenerator(pool.tolist(), spec).run(driver)
        batch_logs: list[np.ndarray] = []
        per_worker = {}
        for info in infos:
            with ForecastClient("127.0.0.1", info["control_port"]) as control:
                batch_logs.extend(control.batch_log(MODEL_KEY))
                stats = control.stats()
            per_worker[info["worker"]] = {
                "transport": stats["transport"],
                "completed": stats["runtime"]["totals"]["completed"],
                "cache_hit_pct": stats["runtime"]["totals"]["cache_hit_pct"],
            }
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            # Killing only the launcher would orphan the worker
            # processes; take them down by the pids they published.
            for info in infos:
                try:
                    os.kill(info["pid"], signal.SIGKILL)
                except (OSError, KeyError):
                    pass
            process.kill()
            process.wait(timeout=10)
    parity = _wire_parity(report, _replay_candidates(replay_model, batch_logs))
    summary = report.summary()
    summary["workers"] = workers
    summary["per_worker"] = per_worker
    return summary, parity


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny load / single-epoch fit (CI wiring check)")
    parser.add_argument("--threads", type=int, default=None,
                        help="client threads (default: 8 full, 4 smoke)")
    parser.add_argument("--requests", type=int, default=None,
                        help="requests per thread (default: 150 full, 20 smoke)")
    parser.add_argument("--max-batch", type=int, default=64,
                        help="scheduler max batch trigger")
    parser.add_argument("--zipf", type=float, default=1.1,
                        help="Zipf popularity exponent of the window pool")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--wire", action="store_true",
                        help="add HTTP transport legs (in-process server; full "
                             "mode also 1-worker and --wire-workers processes)")
    parser.add_argument("--wire-workers", type=int, default=4,
                        help="fleet size for the multi-process wire leg")
    parser.add_argument("--wire-threads", type=int, default=None,
                        help="client threads for wire legs (default: 96 full, "
                             "4 smoke — a high-fan-in regime)")
    parser.add_argument("--wire-repeats", type=int, default=None,
                        help="repeats per worker-fleet leg; the median-"
                             "throughput repeat is reported (default: 3 full, "
                             "1 smoke)")
    parser.add_argument("--output", default=None,
                        help="result JSON path (default: <repo>/BENCH_serving.json, "
                             "or BENCH_transport.json with --wire; '-' skips writing)")
    args = parser.parse_args(argv)

    threads = args.threads if args.threads is not None else (4 if args.smoke else 8)
    requests = args.requests if args.requests is not None else (20 if args.smoke else 150)
    wire_threads = (
        args.wire_threads if args.wire_threads is not None
        else (4 if args.smoke else 96)
    )
    wire_repeats = (
        args.wire_repeats if args.wire_repeats is not None
        else (1 if args.smoke else 3)
    )
    if wire_repeats < 1:
        parser.error("--wire-repeats must be >= 1")
    if args.wire and args.wire_workers < 2:
        parser.error("--wire-workers must be >= 2 (the multi-worker leg is "
                     "compared against a 1-worker baseline)")
    fit_kwargs = (
        dict(sensors=16, days=2, epochs=1, hidden=8)
        if args.smoke
        else dict(sensors=24, days=3, epochs=2, hidden=16)
    )

    print(f"[fitting STSM ({'smoke' if args.smoke else 'full'}) ...]")
    model, pool, recipe = fit_model("pems-bay", seed=args.seed, **fit_kwargs)
    spec = LoadSpec(
        num_threads=threads,
        requests_per_thread=requests,
        zipf_exponent=args.zipf,
        seed=args.seed,
    )

    print(f"[unbatched leg: {threads} threads x {requests} requests]")
    unbatched, unbatched_parity = run_unbatched(model, pool, spec)
    print(f"[scheduler leg: max_batch {args.max_batch}]")
    scheduled, scheduled_parity = run_scheduled(
        model, pool, spec, max_batch=args.max_batch
    )

    speedup = scheduled["throughput_rps"] / unbatched["throughput_rps"]
    for label, leg in (("unbatched", unbatched), ("scheduler", scheduled)):
        lat = leg["latency"]
        print(
            f"{label:10s} {leg['throughput_rps']:9.0f} req/s   "
            f"p50 {lat['p50_ms']:7.2f} ms   p95 {lat['p95_ms']:7.2f} ms   "
            f"p99 {lat['p99_ms']:7.2f} ms"
        )
    sched = scheduled["scheduler"]
    service = scheduled["service"]
    print(
        f"speedup    {speedup:.2f}x   batches {sched['batches']} "
        f"(avg {sched['avg_batch_size']:.1f}, peak queue {sched['peak_queue_depth']})   "
        f"cache-hit {service['cache_hit_pct']:.1f}%"
    )
    print(f"parity     unbatched={unbatched_parity} scheduler={scheduled_parity}")

    multi = None
    if not args.smoke:
        print("[multi-model leg: 2 hosted models, mixed routed traffic]")
        second, second_pool, _ = fit_model(
            "melbourne", sensors=20, days=3, epochs=2, hidden=16, seed=args.seed + 1
        )
        multi = run_multi_model(
            {"stsm/pems-bay": (model, pool), "stsm/melbourne": (second, second_pool)},
            LoadSpec(
                num_threads=threads,
                requests_per_thread=max(1, requests // 2),
                zipf_exponent=args.zipf,
                seed=args.seed + 7,
            ),
        )
        print(
            f"multi      {multi['throughput_rps']:9.0f} req/s across "
            f"{multi['totals']['models']} models   "
            f"cache-hit {multi['totals']['cache_hit_pct']:.1f}%"
        )

    wire = None
    wire_parity_ok = True
    wire_speedup = None
    if args.wire:
        wire_spec = LoadSpec(
            num_threads=wire_threads,
            requests_per_thread=requests,
            zipf_exponent=args.zipf,
            seed=args.seed + 13,
        )
        # The in-process leg isolates HTTP overhead vs the in-process
        # scheduler; it shares one interpreter with the clients, so it
        # runs at moderate concurrency (fan-in stress belongs to the
        # worker-process legs, where client and server GILs are separate).
        inproc_threads = min(wire_threads, 16)
        inproc_spec = LoadSpec(
            num_threads=inproc_threads,
            requests_per_thread=requests,
            zipf_exponent=args.zipf,
            seed=args.seed + 13,
        )
        print(f"[wire leg: in-process HTTP server, {inproc_threads} client threads]")
        inproc, inproc_parity = run_wire_inprocess(
            model, pool, inproc_spec, max_batch=args.max_batch,
        )
        lat = inproc["latency"]
        print(
            f"wire:inproc {inproc['throughput_rps']:8.0f} req/s   "
            f"p50 {lat['p50_ms']:7.2f} ms   p99 {lat['p99_ms']:7.2f} ms   "
            f"parity={inproc_parity}"
        )
        wire = {
            "client_threads": wire_threads,
            "inprocess_client_threads": inproc_threads,
            "inprocess": inproc,
            "parity": {"inprocess": inproc_parity},
        }
        wire_parity_ok = inproc_parity
        if not args.smoke:
            with tempfile.TemporaryDirectory(prefix="repro-wire-bundle-") as tmp:
                bundle_dir = Path(tmp)
                save_bundle(bundle_dir, {
                    MODEL_KEY: BundleEntry(
                        forecaster=model,
                        dataset=recipe,
                        warmup_starts=[int(s) for s in pool],
                    ),
                })
                # Replay model: restored from the same checkpoint the
                # workers load, so replayed bytes are their bytes.
                replay_model, _ = load_bundle(bundle_dir)[MODEL_KEY]

                def fleet_leg(label: str, workers: int):
                    """Median-of-repeats fleet run (closed-loop wire
                    serving is bistable in its queueing regime; one draw
                    is not a number)."""
                    runs = []
                    parity_all = True
                    for _ in range(wire_repeats):
                        summary, parity = run_wire_fleet(
                            replay_model, bundle_dir, pool, wire_spec,
                            workers=workers, max_batch=args.max_batch,
                        )
                        runs.append(summary)
                        parity_all = parity_all and parity
                    runs.sort(key=lambda s: s["throughput_rps"])
                    median = runs[len(runs) // 2]
                    median["repeat_throughputs"] = [
                        round(s["throughput_rps"], 1) for s in runs
                    ]
                    lat = median["latency"]
                    print(
                        f"wire:{label:6s} {median['throughput_rps']:8.0f} req/s   "
                        f"p50 {lat['p50_ms']:7.2f} ms   p99 {lat['p99_ms']:7.2f} ms   "
                        f"parity={parity_all}  "
                        f"(repeats: {median['repeat_throughputs']})"
                    )
                    return median, parity_all

                legs = {}
                for n in (1, args.wire_workers):
                    print(f"[wire leg: {n} worker process(es) behind "
                          f"SO_REUSEPORT, {wire_repeats} repeat(s)]")
                    legs[n], parity_n = fleet_leg(f"{n}w", n)
                    wire["parity"][f"workers_{n}"] = parity_n
                    wire_parity_ok = wire_parity_ok and parity_n
            wire["single_worker"] = legs[1]
            wire["multi_worker"] = legs[args.wire_workers]
            wire_speedup = (
                legs[args.wire_workers]["throughput_rps"] / legs[1]["throughput_rps"]
            )
            wire["worker_speedup"] = wire_speedup
            wire["machine_cpus"] = _available_cpus()
            # The >= 2x gate presumes workers can occupy distinct CPUs.
            # On one CPU every worker count saturates the same core and
            # the ratio is queueing noise, so it is reported, not
            # enforced.
            wire["worker_speedup_target"] = (
                WIRE_SPEEDUP_TARGET if wire["machine_cpus"] >= 2 else None
            )
            wire["vs_inprocess_scheduler"] = {
                "scheduler_rps": scheduled["throughput_rps"],
                "wire_single_worker_rps": legs[1]["throughput_rps"],
                "wire_overhead_factor": (
                    scheduled["throughput_rps"] / legs[1]["throughput_rps"]
                ),
            }
            target = wire["worker_speedup_target"]
            print(
                f"wire scale {wire_speedup:.2f}x ({args.wire_workers} workers vs 1, "
                f"{wire['machine_cpus']} CPU(s), "
                + (f"target {target}x" if target is not None
                   else "gate informational on 1 CPU")
                + f")   http-vs-scheduler overhead "
                f"{wire['vs_inprocess_scheduler']['wire_overhead_factor']:.2f}x"
            )

    results = {
        "mode": "smoke" if args.smoke else "full",
        "backend": get_backend().name,
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "config": {
            "num_threads": threads,
            "requests_per_thread": requests,
            "pool_size": int(len(pool)),
            "zipf_exponent": args.zipf,
            "max_batch": args.max_batch,
            "seed": args.seed,
            "fit": fit_kwargs,
        },
        "unbatched": unbatched,
        "scheduler": scheduled,
        "speedup": speedup,
        "parity": {"unbatched": unbatched_parity, "scheduler": scheduled_parity},
    }
    if multi is not None:
        results["multi_model"] = multi
    if wire is not None:
        results["config"]["wire_workers"] = args.wire_workers
        results["config"]["wire_threads"] = wire_threads
        results["config"]["wire_repeats"] = wire_repeats
        results["wire"] = wire

    if args.output != "-":
        default_name = "BENCH_transport.json" if args.wire else "BENCH_serving.json"
        output = Path(args.output) if args.output else REPO_ROOT / default_name
        output.write_text(json.dumps(results, indent=2) + "\n")
        print(f"[wrote {output}]")

    if not (unbatched_parity and scheduled_parity and wire_parity_ok):
        print("ERROR: served outputs are not bitwise direct-predict bytes", file=sys.stderr)
        return 1
    if not args.smoke and speedup < SPEEDUP_TARGET:
        print(
            f"ERROR: scheduler speedup {speedup:.2f}x below the "
            f"{SPEEDUP_TARGET}x target",
            file=sys.stderr,
        )
        return 1
    if (
        wire_speedup is not None
        and wire.get("worker_speedup_target") is not None
        and wire_speedup < wire["worker_speedup_target"]
    ):
        print(
            f"ERROR: {args.wire_workers}-worker wire speedup {wire_speedup:.2f}x "
            f"below the {wire['worker_speedup_target']}x target "
            f"({wire['machine_cpus']} CPU(s) available)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
