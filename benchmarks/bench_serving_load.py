"""Multi-worker wire-scaling benchmark: an N-worker fleet vs one worker.

Seeded-Zipf closed-loop traffic (:func:`wire_load`: one
:class:`~repro.serving.transport.ForecastClient` per client thread)
goes over real HTTP to

* a **1-worker** server process launched from a checkpoint bundle via
  ``python -m repro.serving serve``, and
* an **N-worker** ``SO_REUSEPORT`` fleet (``--wire-workers``, default 4).

Every leg is parity certified: each worker's predict-batch compositions
are fetched over its control port's ``/v1/batch_log`` endpoint and
replayed through a locally restored copy of the same checkpoint — every
served block must be bitwise one of those direct-``predict`` blocks.
In-process serving is timed by the repo benchmark (``perfbench``
workloads ``serve_hot`` and ``serve_cold``); this bench keeps the one
serving measurement it has no workload for.

Run::

    PYTHONPATH=src python benchmarks/bench_serving_load.py          # full
    PYTHONPATH=src python benchmarks/bench_serving_load.py --smoke  # CI wiring

Writes ``BENCH_transport.json`` at the repository root (override with
``--output``; ``-`` skips writing).  Acceptance target (full mode): the
``--wire-workers``-worker fleet >= 2x single-worker wire throughput on
machines with >= 2 CPUs (on one CPU every worker count saturates the
same core, so the ratio is recorded but not enforced;
``wire.worker_gate_applied`` says which) — with parity on every served
byte.  Legs report the median of ``--wire-repeats`` runs;
all repeats must pass parity.
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
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.backend import get_backend  # noqa: E402
from repro.core import STSMConfig, STSMForecaster  # noqa: E402
from repro.data import WindowSpec, space_split, temporal_split  # noqa: E402
from repro.data.synthetic import make_dataset  # noqa: E402
from repro.evaluation import forecast_window_starts  # noqa: E402
from repro.serving.transport import (  # noqa: E402
    BundleEntry,
    ForecastClient,
    load_bundle,
    save_bundle,
)

#: Multi-worker wire scaling gate, enforced in full mode on machines
#: with >= 2 CPUs where SO_REUSEPORT workers actually multiply compute.
#: On a single CPU every worker count saturates the same core, so the
#: Nw/1w ratio measures bistable queueing noise, not scaling — there the
#: gate is informational only (the JSON records the CPU count, the
#: applied gate, and every repeat's throughput so the call is auditable).
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


def wire_load(port: int, pool, *, threads: int, requests: int, zipf: float,
              seed: int) -> tuple[dict, list]:
    """Closed-loop seeded-Zipf traffic over HTTP, one client per thread.

    Thread ``t`` sends ``requests`` window starts drawn from ``pool``
    (``pool[0]`` most popular, weight ``rank ** -zipf``) by
    ``default_rng([seed, t])``, so reruns replay the same sequences.
    Every thread is released together behind a barrier and the clock
    starts after it, so thread start-up is not timed.  Returns the run
    summary and, per thread, its ``(start, block)`` pairs in send order.
    """
    weights = np.arange(1, len(pool) + 1, dtype=float) ** -float(zipf)
    sequences = [
        [int(pool[i]) for i in np.random.default_rng([seed, t]).choice(
            len(pool), size=requests, p=weights / weights.sum())]
        for t in range(threads)
    ]
    latencies = [[] for _ in range(threads)]
    barrier = threading.Barrier(threads + 1)

    def send(t: int) -> list:
        served = []
        with ForecastClient("127.0.0.1", port, retries=5, backoff_s=0.02) as client:
            barrier.wait()
            for start in sequences[t]:
                began = time.perf_counter()
                served.append((start, client.forecast_one(MODEL_KEY, start)))
                latencies[t].append(time.perf_counter() - began)
        return served

    with ThreadPoolExecutor(threads) as executor:
        pending = executor.map(send, range(threads))
        barrier.wait()
        began = time.perf_counter()
        results = list(pending)
    elapsed = time.perf_counter() - began
    ms = np.concatenate(latencies) * 1e3
    p50, p95, p99 = np.percentile(ms, [50.0, 95.0, 99.0])
    summary = {
        "num_threads": threads,
        "num_requests": int(ms.size),
        "elapsed_seconds": elapsed,
        "throughput_rps": ms.size / elapsed,
        "latency": {
            "count": int(ms.size),
            "p50_ms": float(p50),
            "p95_ms": float(p95),
            "p99_ms": float(p99),
            "mean_ms": float(ms.mean()),
            "max_ms": float(ms.max()),
        },
    }
    return summary, results


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


def _wire_parity(results: list, candidates: dict[int, list[np.ndarray]]) -> bool:
    """Every served block must be bitwise one of the replay candidates."""
    return all(
        any(np.array_equal(value, direct) for direct in candidates.get(int(start), []))
        for per_thread in results
        for start, value in per_thread
    )


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
    replay_model, bundle_dir: Path, pool: np.ndarray, load: dict, *,
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
        summary, results = wire_load(port, pool, **load)
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
    parity = _wire_parity(results, _replay_candidates(replay_model, batch_logs))
    summary["workers"] = workers
    summary["per_worker"] = per_worker
    return summary, parity


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny load / single-epoch fit, no scaling gate "
                             "(CI wiring check)")
    parser.add_argument("--requests", type=int, default=None,
                        help="requests per client thread (default: 150 full, "
                             "20 smoke)")
    parser.add_argument("--max-batch", type=int, default=64,
                        help="scheduler max batch trigger")
    parser.add_argument("--zipf", type=float, default=1.1,
                        help="Zipf popularity exponent of the window pool")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--wire-workers", type=int, default=4,
                        help="fleet size for the multi-process wire leg")
    parser.add_argument("--wire-threads", type=int, default=None,
                        help="client threads (default: 96 full, 4 smoke — a "
                             "high-fan-in regime)")
    parser.add_argument("--wire-repeats", type=int, default=None,
                        help="repeats per worker-fleet leg; the median-"
                             "throughput repeat is reported (default: 3 full, "
                             "1 smoke)")
    parser.add_argument("--output", default=None,
                        help="result JSON path (default: "
                             "<repo>/BENCH_transport.json; '-' skips writing)")
    args = parser.parse_args(argv)

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
    if args.wire_workers < 2:
        parser.error("--wire-workers must be >= 2 (the multi-worker leg is "
                     "compared against a 1-worker baseline)")
    fit_kwargs = (
        dict(sensors=16, days=2, epochs=1, hidden=8)
        if args.smoke
        else dict(sensors=24, days=3, epochs=2, hidden=16)
    )

    print(f"[fitting STSM ({'smoke' if args.smoke else 'full'}) ...]")
    model, pool, recipe = fit_model("pems-bay", seed=args.seed, **fit_kwargs)
    load = dict(threads=wire_threads, requests=requests, zipf=args.zipf,
                seed=args.seed + 13)

    wire = {"client_threads": wire_threads, "parity": {}}
    legs = {}
    with tempfile.TemporaryDirectory(prefix="repro-wire-bundle-") as tmp:
        bundle_dir = Path(tmp)
        save_bundle(bundle_dir, {
            MODEL_KEY: BundleEntry(
                forecaster=model,
                dataset=recipe,
                warmup_starts=[int(s) for s in pool],
            ),
        })
        # Replay model: restored from the same checkpoint the workers
        # load, so replayed bytes are their bytes.
        replay_model, _ = load_bundle(bundle_dir)[MODEL_KEY]
        for n in (1, args.wire_workers):
            # Median of repeats: closed-loop wire serving is bistable in
            # its queueing regime; one draw is not a number.
            print(f"[wire leg: {n} worker process(es) behind SO_REUSEPORT, "
                  f"{wire_repeats} repeat(s), {wire_threads} client threads]")
            runs = []
            parity_all = True
            for _ in range(wire_repeats):
                summary, parity = run_wire_fleet(
                    replay_model, bundle_dir, pool, load,
                    workers=n, max_batch=args.max_batch,
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
                f"wire:{n}w {median['throughput_rps']:8.0f} req/s   "
                f"p50 {lat['p50_ms']:7.2f} ms   p99 {lat['p99_ms']:7.2f} ms   "
                f"parity={parity_all}  (repeats: {median['repeat_throughputs']})"
            )
            legs[n] = median
            wire["parity"][f"workers_{n}"] = parity_all
    wire["single_worker"] = legs[1]
    wire["multi_worker"] = legs[args.wire_workers]
    wire_speedup = legs[args.wire_workers]["throughput_rps"] / legs[1]["throughput_rps"]
    wire["worker_speedup"] = wire_speedup
    wire["machine_cpus"] = _available_cpus()
    # The >= 2x gate presumes workers can occupy distinct CPUs.  On one
    # CPU every worker count saturates the same core and the ratio is
    # queueing noise, so it is reported, not enforced; smoke shapes are
    # too small for the ratio to mean anything either.  The target is
    # always recorded, and whether the gate ran beside it.
    gate_applied = not args.smoke and wire["machine_cpus"] >= 2
    wire["worker_speedup_target"] = WIRE_SPEEDUP_TARGET
    wire["worker_gate_applied"] = gate_applied
    print(
        f"wire scale {wire_speedup:.2f}x ({args.wire_workers} workers vs 1, "
        f"{wire['machine_cpus']} CPU(s), target {WIRE_SPEEDUP_TARGET}x, "
        + ("gate applied)" if gate_applied else "gate not applied)")
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
            "requests_per_thread": requests,
            "pool_size": int(len(pool)),
            "zipf_exponent": args.zipf,
            "max_batch": args.max_batch,
            "seed": args.seed,
            "fit": fit_kwargs,
            "wire_workers": args.wire_workers,
            "wire_threads": wire_threads,
            "wire_repeats": wire_repeats,
        },
        "wire": wire,
    }

    if args.output != "-":
        output = Path(args.output) if args.output else REPO_ROOT / "BENCH_transport.json"
        output.write_text(json.dumps(results, indent=2) + "\n")
        print(f"[wrote {output}]")

    if not all(wire["parity"].values()):
        print("ERROR: served outputs are not bitwise direct-predict bytes", file=sys.stderr)
        return 1
    if gate_applied and wire_speedup < WIRE_SPEEDUP_TARGET:
        print(
            f"ERROR: {args.wire_workers}-worker wire speedup {wire_speedup:.2f}x "
            f"below the {WIRE_SPEEDUP_TARGET}x target "
            f"({wire['machine_cpus']} CPU(s) available)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
