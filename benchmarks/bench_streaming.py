"""Streaming ingestion + incremental refit benchmark: fresh models, zero drops.

Replays a synthetic sensor feed on a simulated clock into a
:class:`~repro.streaming.StreamBuffer`, runs a
:class:`~repro.streaming.RefitScheduler` over the rolling window
(warm-started from the previous refit's checkpoint, DTW pairs and
masked adjacencies shared through the
:class:`~repro.engine.ArtifactStore`), and blue/green swaps every
refreshed model into a live :class:`~repro.serving.ServingRuntime`
behind a real HTTP server while concurrent wire clients hammer the
model key without pause.  Three hard gates:

* **parity** — every refit's weights and direct-``predict`` bytes must
  be bitwise identical to a from-scratch fit of the same window
  (:func:`~repro.streaming.fit_reference`: in-memory warm state, all
  cross-fit caches off), and every block served over the wire must be
  bitwise one of the blocks obtained by replaying the deployed
  services' logged batch compositions through those references;
* **no drops** — across every swap, zero client errors, zero
  failed/rejected requests, and accepted == completed in the runtime's
  ``stats()["totals"]`` (the model's counters run on across swaps);
  the ``/metrics`` scrapes taken before the first swap and after the
  last must show no duplicated series and no decreasing ``*_total``;
* **warm speedup** (full mode) — the mean warm incremental refit must
  beat a cold from-scratch fit (full training budget, private cold
  caches) on the same window by ``WARM_SPEEDUP_TARGET``; both sides are
  measured under the same concurrent serving load, the operational
  refresh-while-serving regime.

Also reported: per-refit refit-lag (trigger-row arrival → model live),
swap telemetry, store reuse counters, and the ``/v1/stats`` streaming
section as fetched over the wire.

Run::

    PYTHONPATH=src python benchmarks/bench_streaming.py            # full
    PYTHONPATH=src python benchmarks/bench_streaming.py --smoke    # CI wiring

Writes ``BENCH_streaming.json`` at the repository root (override with
``--output``; ``-`` skips writing).  Exits non-zero on any parity
failure, any dropped request, or (full mode) a warm speedup below
target.
"""

from __future__ import annotations

import argparse
import json
import platform
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
from repro.data import WindowSpec, space_split  # noqa: E402
from repro.data.synthetic import make_dataset  # noqa: E402
from repro.engine import ArtifactStore, reset_store  # noqa: E402
from repro.serving import ServingRuntime  # noqa: E402
from repro.serving.transport import ForecastClient, ForecastHTTPServer  # noqa: E402
from repro.streaming import (  # noqa: E402
    FeedReplayer,
    LiveSwapBridge,
    RefitPolicy,
    RefitScheduler,
    StreamBuffer,
    fit_reference,
)

#: Full-mode gate: mean warm incremental refit vs cold from-scratch fit
#: (full training budget, private cold caches) on the same window.
WARM_SPEEDUP_TARGET = 1.5
MODEL_KEY = "stsm/pems-bay"


def _state_bytes(model) -> dict[str, bytes]:
    return {k: v.tobytes() for k, v in model.network.state_dict().items()}


def check_scrapes(before: str, after: str) -> bool:
    """No duplicated series in either ``/metrics`` scrape, and no
    ``*_total`` sample lower after the swaps than before them."""
    samples = []
    for text in (before, after):
        lines = [
            line.rsplit(" ", 1) for line in text.splitlines()
            if line and not line.startswith("#")
        ]
        series = {name: float(value) for name, value in lines}
        if len(series) != len(lines):
            return False
        samples.append(series)
    return all(
        samples[1].get(name, -1.0) >= value
        for name, value in samples[0].items()
        if name.split("{")[0].endswith("_total")
    )


def run_live(args, *, dataset, split, spec, config, policy, checkpoint_root):
    """The live phase: clocked replay → rolling refits → blue/green swaps
    under continuous concurrent wire load.

    Returns everything the parity and reporting phases need: the
    scheduler (buffer + records), per-refit models/services/wall times,
    the hammered (start, block) samples, and the runtime/wire telemetry.
    """
    last_trigger = policy.trigger_watermark(policy.max_refits - 1)
    buffer = StreamBuffer(dataset)
    replayer = FeedReplayer(
        dataset, buffer, speedup=1.0, interval_s=args.interval_s,
        stop_step=last_trigger, seed=args.seed,
    )
    store = ArtifactStore()
    scheduler = RefitScheduler(
        buffer, config, split, spec, policy, checkpoint_root, store=store
    )

    usable = policy.window_steps - spec.total
    pool = [int(s) for s in range(0, usable + 1, 4)]
    models, services, walls = [], [], []
    served: list[list[tuple[int, bytes]]] = [[] for _ in range(args.threads)]
    errors: list[Exception] = []
    stop = threading.Event()

    with ServingRuntime(
        max_queue=4096, cache_size=max(256, len(pool))
    ) as runtime:
        bridge = LiveSwapBridge(runtime, MODEL_KEY, store=store, log_batches=True)
        with ForecastHTTPServer(runtime).start() as server:
            server.set_ready()

            def hammer(worker: int) -> None:
                i = 0
                with ForecastClient("127.0.0.1", server.port, retries=5,
                                    backoff_s=0.02) as client:
                    while not stop.is_set():
                        start = pool[(worker + i) % len(pool)]
                        try:
                            block = client.forecast_one(MODEL_KEY, start)
                        except Exception as error:  # noqa: BLE001
                            errors.append(error)
                            return
                        served[worker].append((start, block.tobytes()))
                        i += 1

            threads = [
                threading.Thread(target=hammer, args=(w,))
                for w in range(args.threads)
            ]
            replayer.start()
            try:
                for index in range(policy.max_refits):
                    target = scheduler.next_trigger()
                    if not buffer.wait_for_watermark(target, timeout=300.0):
                        raise RuntimeError(
                            f"watermark {target} never arrived (replay "
                            f"delivered {replayer.delivered})"
                        )
                    begun = time.perf_counter()
                    record = scheduler.run_once(timeout=0)
                    walls.append(time.perf_counter() - begun)
                    models.append(scheduler.model)
                    services.append(bridge.deploy(scheduler.model, record))
                    print(
                        f"[refit {index}: window {record.window_start}-"
                        f"{record.window_end}  warm={record.warm_started}  "
                        f"fit {walls[-1]:.2f}s  lag "
                        f"{bridge.deploys[-1]['refit_lag_seconds']:.2f}s]"
                    )
                    if index == 0:
                        with ForecastClient("127.0.0.1", server.port) as client:
                            scrape_before = client.metrics_text()
                        # Traffic starts the moment a model is live and
                        # runs uninterrupted across every later swap.
                        for thread in threads:
                            thread.start()
                # Cold from-scratch baseline (full training budget,
                # private cold caches) fitted under the same
                # concurrent serving load the warm refits absorbed —
                # the operational refresh-while-serving comparison.
                cold_view = buffer.dataset_view(
                    *policy.window(policy.max_refits - 1), name_suffix="cold"
                )
                cold_model = STSMForecaster(
                    config.replace(cache_store=False), name="STSM-cold"
                )
                begun = time.perf_counter()
                cold_model.fit(
                    cold_view, split, spec, np.arange(cold_view.num_steps)
                )
                cold_wall = time.perf_counter() - begun
                time.sleep(0.2)
            finally:
                stop.set()
                for thread in threads:
                    if thread.is_alive():
                        thread.join(timeout=60.0)
                replayer.stop()
                replayer.join(timeout=10.0)
            runtime.drain()
            with ForecastClient("127.0.0.1", server.port) as client:
                wire_stats = client.stats()
                scrape_after = client.metrics_text()
            transport = server.transport_stats()
        stats = runtime.stats()

    return {
        "scheduler": scheduler,
        "cold_wall": cold_wall,
        "replayer": replayer,
        "models": models,
        "services": services,
        "walls": walls,
        "served": [s for per_thread in served for s in per_thread],
        "errors": errors,
        "runtime_stats": stats,
        "wire_stats": wire_stats,
        "transport": transport,
        "scrapes_ok": check_scrapes(scrape_before, scrape_after),
    }


def check_parity(scheduler, models, services) -> dict:
    """The hard parity gate: refit weights/predict bytes vs from-scratch
    references, then every deployed service's logged batch compositions
    replayed through its reference."""
    spec_total = scheduler.spec.total
    usable = scheduler.policy.window_steps - spec_total
    starts = np.arange(0, usable + 1, 4)
    refits = []
    candidates: dict[int, set[bytes]] = {}
    for index, (model, service) in enumerate(zip(models, services)):
        reference = fit_reference(scheduler, index)
        state, ref_state = _state_bytes(model), _state_bytes(reference)
        state_ok = state == ref_state
        predict_ok = (
            model.predict(starts).tobytes() == reference.predict(starts).tobytes()
        )
        replayed = 0
        for batch in service.batch_log:
            batch = np.asarray(batch, dtype=int)
            blocks = reference.predict(batch)
            for start, block in zip(batch, blocks):
                candidates.setdefault(int(start), set()).add(block.tobytes())
            replayed += len(batch)
        refits.append({
            "index": index,
            "state_bitwise": state_ok,
            "predict_bitwise": predict_ok,
            "batch_rows_replayed": replayed,
        })
    return {"refits": refits, "candidates": candidates}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny feed / single-epoch refits (CI wiring check)")
    parser.add_argument("--threads", type=int, default=None,
                        help="concurrent wire clients (default: 8 full, 4 smoke)")
    parser.add_argument("--refits", type=int, default=None,
                        help="rolling refits to run (default: 3 full, 2 smoke; "
                             "must be >= 2 so at least one refit warm-starts)")
    parser.add_argument("--interval-s", type=float, default=None,
                        help="simulated-clock seconds per feed row "
                             "(default: 0.005 full, 0.002 smoke)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default=None,
                        help="result JSON path (default: "
                             "<repo>/BENCH_streaming.json; '-' skips writing)")
    args = parser.parse_args(argv)

    args.threads = args.threads if args.threads is not None else (4 if args.smoke else 8)
    refits = args.refits if args.refits is not None else (2 if args.smoke else 3)
    if refits < 2:
        parser.error("--refits must be >= 2 (refit 1+ proves the warm-start chain)")
    args.interval_s = (
        args.interval_s if args.interval_s is not None
        else (0.002 if args.smoke else 0.005)
    )
    # Feed/model sizing.  batch_size and window_stride are chosen so the
    # rolling window always yields >= 1 *full* training batch: the
    # contrastive loss drops partial batches, and a window whose only
    # batch is partial would never update a weight — making every parity
    # assertion below vacuously true.
    if args.smoke:
        feed = dict(num_sensors=10, num_days=1)
        window_steps, refit_every = 64, 32
        refit_epochs, cold_epochs, hidden = 1, 2, 8
        batch_size = 4
    else:
        feed = dict(num_sensors=16, num_days=2)
        window_steps, refit_every = 128, 64
        refit_epochs, cold_epochs, hidden = 2, 6, 16
        batch_size = 8
    policy = RefitPolicy(
        window_steps=window_steps, refit_every=refit_every,
        refit_epochs=refit_epochs, max_refits=refits,
    )
    dataset = make_dataset("pems-bay", seed=args.seed, **feed)
    last_trigger = policy.trigger_watermark(refits - 1)
    if last_trigger > dataset.num_steps:
        parser.error(
            f"{refits} refits need {last_trigger} feed steps; the "
            f"{'smoke' if args.smoke else 'full'} feed has {dataset.num_steps}"
        )
    split = space_split(dataset.coords, "horizontal")
    spec = WindowSpec(input_length=8, horizon=8)
    config = STSMConfig(
        hidden_dim=hidden, num_blocks=1, tcn_levels=2, gcn_depth=1,
        epochs=cold_epochs, patience=cold_epochs, batch_size=batch_size,
        window_stride=4, top_k=min(6, feed["num_sensors"] - 1), seed=args.seed,
    )

    print(
        f"[{'smoke' if args.smoke else 'full'} feed: {dataset.num_steps} steps x "
        f"{feed['num_sensors']} sensors, {refits} refits over "
        f"{window_steps}-step windows every {refit_every} steps, "
        f"{args.threads} wire clients]"
    )
    try:
        with tempfile.TemporaryDirectory(prefix="repro-streaming-bench-") as tmp:
            live = run_live(
                args, dataset=dataset, split=split, spec=spec, config=config,
                policy=policy, checkpoint_root=Path(tmp) / "refits",
            )
            scheduler = live["scheduler"]

            # ----------------------------------------------------------
            # Gate 1: bitwise parity (weights, predicts, served bytes).
            # ----------------------------------------------------------
            print("[parity: from-scratch reference fits + batch-log replay]")
            parity = check_parity(scheduler, live["models"], live["services"])
            candidates = parity.pop("candidates")
            served_checked = len(live["served"])
            served_ok = all(
                block in candidates.get(start, ())
                for start, block in live["served"]
            )
            parity["served_wire"] = served_ok
            parity["served_blocks_checked"] = served_checked
            parity_ok = served_ok and all(
                r["state_bitwise"] and r["predict_bitwise"] for r in parity["refits"]
            )
            print(
                f"parity     refits="
                f"{[r['state_bitwise'] and r['predict_bitwise'] for r in parity['refits']]}"
                f"  wire={served_ok} ({served_checked} served blocks)"
            )

            # ----------------------------------------------------------
            # Gate 2: no request dropped or errored across the swaps.
            # ----------------------------------------------------------
            stats = live["runtime_stats"]
            totals = stats["totals"]
            no_drop = {
                "client_errors": len(live["errors"]),
                "served_blocks": served_checked,
                "swaps": stats["swaps"]["count"],
                **{key: totals[key] for key in ("submitted", "completed", "failed", "rejected")},
            }
            no_drop["ok"] = (
                not live["errors"]
                and served_checked > 0
                and no_drop["swaps"] == refits - 1
                and no_drop["failed"] == 0
                and no_drop["rejected"] == 0
                and no_drop["submitted"] == no_drop["completed"]
                and live["scrapes_ok"]
            )
            print(
                f"no-drop    ok={no_drop['ok']}  swaps={no_drop['swaps']}  "
                f"submitted={no_drop['submitted']}  completed={no_drop['completed']}  "
                f"failed={no_drop['failed']}  rejected={no_drop['rejected']}  "
                f"/metrics monotone, no duplicates={live['scrapes_ok']}"
            )

            # ----------------------------------------------------------
            # Gate 3 (full): warm incremental refit vs cold from-scratch.
            # ----------------------------------------------------------
            cold_wall = live["cold_wall"]
            warm_walls = live["walls"][1:]
            warm_mean = sum(warm_walls) / len(warm_walls)
            warm_speedup = cold_wall / warm_mean
            warm = {
                "cold_epochs": cold_epochs,
                "refit_epochs": refit_epochs,
                "cold_seconds": cold_wall,
                "warm_seconds_mean": warm_mean,
                "warm_seconds": warm_walls,
                "speedup": warm_speedup,
                "target": WARM_SPEEDUP_TARGET,
                # Smoke shapes are too small for timing to mean anything;
                # the gate only binds in full mode.
                "enforced": not args.smoke,
            }
            print(
                f"warm-vs-cold {warm_speedup:.2f}x  (cold {cold_wall:.2f}s @ "
                f"{cold_epochs} epochs vs warm {warm_mean:.2f}s @ "
                f"{refit_epochs} epochs)"
            )

            bridge_section = stats["streaming"]
            wire_runtime = live["wire_stats"]["runtime"]
            results = {
                "mode": "smoke" if args.smoke else "full",
                "backend": get_backend().name,
                "machine": {
                    "python": platform.python_version(),
                    "numpy": np.__version__,
                    "platform": platform.platform(),
                },
                "config": {
                    "feed": {"name": "pems-bay", **feed,
                             "steps": dataset.num_steps, "seed": args.seed},
                    "window_steps": window_steps,
                    "refit_every": refit_every,
                    "refits": refits,
                    "refit_epochs": refit_epochs,
                    "cold_epochs": cold_epochs,
                    "hidden": hidden,
                    "interval_s": args.interval_s,
                    "threads": args.threads,
                },
                "replay": live["replayer"].stats,
                "refits": [r.as_dict() for r in scheduler.records],
                "refit_lag": bridge_section["refit_lag"],
                "swap": {
                    "deploys": bridge_section["deploys"],
                    "swaps": bridge_section["swaps"],
                    "count": stats["swaps"]["count"],
                    "swap_seconds_max": max(
                        d["swap_seconds"] for d in bridge_section["history"]
                    ),
                },
                "no_drop": no_drop,
                "parity": parity,
                "warm_vs_cold": warm,
                "transport": live["transport"],
                "stats_on_wire": {
                    "streaming": "streaming" in wire_runtime,
                    "store": "store" in wire_runtime,
                },
                "store": scheduler.store.stats["totals"],
            }
    finally:
        reset_store()

    if args.output != "-":
        output = Path(args.output) if args.output else REPO_ROOT / "BENCH_streaming.json"
        output.write_text(json.dumps(results, indent=2) + "\n")
        print(f"[wrote {output}]")

    if not parity_ok:
        print(
            "ERROR: incremental refit is not bitwise identical to the "
            "from-scratch reference", file=sys.stderr,
        )
        return 1
    if not no_drop["ok"]:
        print("ERROR: requests dropped or errored across a swap, or /metrics "
              "duplicated a series or went backwards", file=sys.stderr)
        return 1
    if not (results["stats_on_wire"]["streaming"] and results["stats_on_wire"]["store"]):
        print("ERROR: streaming/store telemetry missing from GET /v1/stats",
              file=sys.stderr)
        return 1
    if warm["enforced"] and warm_speedup < warm["target"]:
        print(
            f"ERROR: warm refit speedup {warm_speedup:.2f}x below the "
            f"{warm['target']}x target", file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
