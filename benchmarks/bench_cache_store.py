"""Cross-fit artifact-store benchmark: sweeps stop re-paying DTW.

Three legs, all over the same fixed-seed STSM fits:

* **sweep_nostore** — a 3-seed sweep with per-fit cache isolation (the
  pre-store behaviour): every fit re-pays the quadratic DTW adjacency
  builds even though the dataset never changed;
* **sweep_store** — the same sweep drawing from one shared
  :class:`~repro.engine.ArtifactStore` with a disk tier: the first fit
  seeds the store, the second and later fits reuse every unchanged DTW
  pair and masked adjacency (acceptance target: >= 2x wall-clock on the
  second-and-later fits);
* **cold_disk** — a fresh store instance over the persisted directory
  with an empty memory tier (a new process), re-running one fit entirely
  from disk hits;
* **sweep_quota** — the same sweep against a disk tier capped at ~40%
  of the unbounded leg's footprint: the LRU reaper must evict whole
  segments (hard gate), the post-GC tier must sit at or under the quota
  (hard gate), and the hit rate may trail the unbounded sweep by at
  most 10% relative (full mode).

Every leg's per-seed metrics (loss history, best validation RMSE, a
sha256 over the predictions) are certified *identical* to the
store-disabled sweep — the store is bit-exact by contract (an evicted
entry is a miss that recomputes, never a wrong answer), and this
benchmark fails if it is not.

Run::

    PYTHONPATH=src python benchmarks/bench_cache_store.py           # full
    PYTHONPATH=src python benchmarks/bench_cache_store.py --smoke   # CI wiring

Writes ``BENCH_cache_store.json`` at the repository root (override with
``--output``; ``-`` skips writing).

CI sweep-cache mode (the ``sweep-cache`` workflow job)::

    REPRO_CACHE_DIR=/tmp/cache python benchmarks/bench_cache_store.py \
        --ci-sweep first  --sweep-out run1.json
    REPRO_CACHE_DIR=/tmp/cache python benchmarks/bench_cache_store.py \
        --ci-sweep second --sweep-out run2.json --compare run1.json

runs a 2-seed mini-sweep through the real ``run_matrix`` path twice
against one cache directory; the ``second`` phase exits non-zero unless
the store recorded hits *and* the sweep metrics are bit-identical to the
first run's.  Under ``$REPRO_CACHE_MAX_BYTES`` either phase also exits
non-zero when the segment files in the directory exceed the quota.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import STSMConfig, STSMForecaster  # noqa: E402
from repro.data import WindowSpec, space_split, temporal_split  # noqa: E402
from repro.data.synthetic import make_pems_bay  # noqa: E402
from repro.engine import ArtifactStore, StoreConfig, open_store, reset_store  # noqa: E402
from repro.evaluation import forecast_window_starts  # noqa: E402

SEEDS = (0, 1, 2)


def _fit_once(seed: int, cache_store: bool, shape: dict) -> dict:
    """One fixed-seed STSM fit + predict; returns timing and metric digests."""
    dataset = make_pems_bay(
        num_sensors=shape["sensors"], num_days=shape["days"], seed=7
    )
    split = space_split(dataset.coords, "horizontal")
    spec = WindowSpec(input_length=8, horizon=8)
    train_ix, _ = temporal_split(dataset.num_steps)
    config = STSMConfig(
        epochs=shape["epochs"],
        patience=shape["epochs"],
        hidden_dim=shape["hidden"],
        num_blocks=1,
        top_k=8,
        window_stride=shape["stride"],
        dtw_resolution=shape["resolution"],
        seed=seed,
        cache_store=cache_store,
    )
    model = STSMForecaster(config)
    began = time.perf_counter()
    report = model.fit(dataset, split, spec, train_ix)
    fit_seconds = time.perf_counter() - began
    starts = forecast_window_starts(dataset, spec, max_windows=4)
    predictions = model.predict(starts)
    return {
        "seconds": fit_seconds,
        "history": [float(x) for x in report.history],
        "best_val_rmse": float(report.extra["best_val_rmse"]),
        "predictions_sha256": hashlib.sha256(predictions.tobytes()).hexdigest(),
    }


def _metrics_of(run: dict) -> tuple:
    return (run["history"], run["best_val_rmse"], run["predictions_sha256"])


def _segment_file_bytes(directory) -> int:
    """Bytes of the segment files in a cache directory.

    Quota gates measure the directory, not the store's own
    ``disk_usage()``, so an accounting bug in the store cannot pass them.
    """
    return sum(path.stat().st_size for path in Path(directory).glob("seg-*.npz"))


def run_benchmark(args: argparse.Namespace) -> int:
    if args.smoke:
        shape = dict(sensors=16, days=1, epochs=1, hidden=8, stride=8, resolution=24)
        seeds = SEEDS[:2]
    else:
        # DTW-dominated shape: at 80 sensors / 96-point profiles the
        # adjacency builds dwarf the (deliberately small) network, which
        # is exactly the regime the paper's tables 6-9 sweeps live in.
        shape = dict(sensors=80, days=2, epochs=2, hidden=8, stride=16, resolution=96)
        seeds = SEEDS

    reset_store()
    nostore = [_fit_once(seed, False, shape) for seed in seeds]

    cache_dir = Path(tempfile.mkdtemp(prefix="bench-cache-store-"))
    store = open_store(StoreConfig(disk_dir=cache_dir))
    warm = [_fit_once(seed, True, shape) for seed in seeds]
    store.persist()
    unbounded_bytes = _segment_file_bytes(cache_dir)
    warm_stats = store.stats["totals"]

    # Cold start: a brand-new process would see only the disk tier.
    reset_store()
    cold_store = open_store(store=ArtifactStore(disk_dir=cache_dir))
    cold = _fit_once(seeds[0], True, shape)
    cold_stats = cold_store.stats["totals"]
    reset_store()

    # Quota leg: the identical sweep against a tier capped well below
    # the unbounded footprint, so the LRU reaper has to evict.
    quota = max(1, int(unbounded_bytes * 0.4))
    quota_dir = Path(tempfile.mkdtemp(prefix="bench-cache-quota-"))
    quota_store = open_store(StoreConfig(disk_dir=quota_dir, max_bytes=quota))
    quota_began = time.perf_counter()
    bounded = [_fit_once(seed, True, shape) for seed in seeds]
    quota_seconds = time.perf_counter() - quota_began
    quota_store.persist()  # quota store: persist() enforces the cap itself
    quota_bytes_after = _segment_file_bytes(quota_dir)
    quota_stats = quota_store.stats["totals"]
    reset_store()

    identical = (
        all(_metrics_of(a) == _metrics_of(b) for a, b in zip(nostore, warm))
        and _metrics_of(cold) == _metrics_of(nostore[0])
        and all(_metrics_of(a) == _metrics_of(b) for a, b in zip(nostore, bounded))
    )

    repeat_speedup = float(
        np.mean([r["seconds"] for r in nostore[1:]])
        / max(np.mean([r["seconds"] for r in warm[1:]]), 1e-9)
    )
    cold_speedup = float(nostore[0]["seconds"] / max(cold["seconds"], 1e-9))

    def _hit_rate(stats: dict) -> float:
        served = stats["hits"] + stats["disk_hits"]
        return served / max(served + stats["misses"], 1)

    warm_hit_rate = _hit_rate(warm_stats)
    quota_hit_rate = _hit_rate(quota_stats)
    evicted_segments = quota_stats["lifecycle"]["evicted_segments"]

    results = {
        "mode": "smoke" if args.smoke else "full",
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "shape": shape,
        "seeds": list(seeds),
        "seconds": {
            "sweep_nostore": [r["seconds"] for r in nostore],
            "sweep_store": [r["seconds"] for r in warm],
            "cold_disk": cold["seconds"],
            "sweep_quota": quota_seconds,
        },
        "speedup": {
            "repeat_fits": repeat_speedup,
            "cold_start_from_disk": cold_speedup,
        },
        "quota": {
            "unbounded_bytes": unbounded_bytes,
            "quota_bytes": quota,
            "disk_bytes_after_gc": quota_bytes_after,
            "evicted_segments": evicted_segments,
            "hit_rate_unbounded": warm_hit_rate,
            "hit_rate_quota": quota_hit_rate,
        },
        "store_stats": {"warm": warm_stats, "cold": cold_stats, "quota": quota_stats},
        "parity": {
            "identical_metrics": identical,
            "best_val_rmse": [r["best_val_rmse"] for r in nostore],
            "predictions_sha256": [r["predictions_sha256"] for r in nostore],
        },
    }

    for leg in ("sweep_nostore", "sweep_store"):
        rendered = "  ".join(f"{s:6.2f}s" for s in results["seconds"][leg])
        print(f"{leg:14s} {rendered}")
    print(f"{'cold_disk':14s} {results['seconds']['cold_disk']:6.2f}s")
    print(
        f"speedup        repeat_fits {repeat_speedup:.2f}x   "
        f"cold_start {cold_speedup:.2f}x   metrics identical: {identical}"
    )
    print(
        f"quota          {quota_bytes_after}/{quota} bytes after gc "
        f"(unbounded {unbounded_bytes})   evicted_segments {evicted_segments}   "
        f"hit_rate {quota_hit_rate:.3f} vs {warm_hit_rate:.3f} unbounded"
    )

    if args.output != "-":
        output = Path(args.output) if args.output else REPO_ROOT / "BENCH_cache_store.json"
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(json.dumps(results, indent=2) + "\n")
        print(f"[wrote {output}]")

    if not identical:
        print("ERROR: store-enabled metrics drifted from the uncached sweep", file=sys.stderr)
        return 1
    if quota_bytes_after > quota:
        print(f"ERROR: post-GC disk tier ({quota_bytes_after} bytes) exceeds the "
              f"{quota}-byte quota", file=sys.stderr)
        return 1
    if evicted_segments <= 0:
        print("ERROR: the quota leg never forced an eviction — the reaper is dead "
              "or the quota is vacuous", file=sys.stderr)
        return 1
    if not args.smoke and repeat_speedup < 2.0:
        print("ERROR: repeat-fit speedup below the 2x target", file=sys.stderr)
        return 1
    if not args.smoke and quota_hit_rate < warm_hit_rate * 0.9:
        print(f"ERROR: quota-leg hit rate {quota_hit_rate:.3f} trails the unbounded "
              f"rate {warm_hit_rate:.3f} by more than 10%", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# CI sweep-cache mode
# ----------------------------------------------------------------------
def _mini_sweep() -> dict:
    """A 2-seed STSM mini-sweep through the real run_matrix path."""
    from repro.data.synthetic import make_dataset
    from repro.experiments.configs import get_scale
    from repro.experiments.runners import run_matrix, splits_for

    scale = dataclasses.replace(
        get_scale("bench"),
        dataset_sizes={"pems-bay": (22, 2)},
        split_kinds=("horizontal",),
        stsm={**get_scale("bench").stsm, "epochs": 3, "patience": 3},
        max_test_windows=6,
    )
    dataset = make_dataset("pems-bay", num_sensors=22, num_days=2, seed=7)
    splits = splits_for(dataset, scale)
    metrics: dict = {}
    for seed in (0, 1):
        out = run_matrix(
            dataset, "pems-bay", ["STSM"], scale,
            splits=splits, seed=seed,
        )
        entry = out["STSM"]
        metrics[f"seed{seed}"] = {
            "rmse": float(entry["metrics"].rmse),
            "mae": float(entry["metrics"].mae),
            "mape": float(entry["metrics"].mape),
            "r2": float(entry["metrics"].r2),
        }
    return metrics


def run_ci_sweep(args: argparse.Namespace) -> int:
    from repro.engine import CACHE_DIR_ENV, active_store

    if not os.environ.get(CACHE_DIR_ENV):
        print(f"ERROR: --ci-sweep requires {CACHE_DIR_ENV} to be set", file=sys.stderr)
        return 2
    began = time.perf_counter()
    metrics = _mini_sweep()
    store = active_store(True)
    store.persist()
    stats = store.stats["totals"]
    payload = {
        "phase": args.ci_sweep,
        "elapsed_seconds": round(time.perf_counter() - began, 2),
        "metrics": metrics,
        "store_stats": stats,
    }
    out = Path(args.sweep_out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[{args.ci_sweep}] metrics: {json.dumps(metrics)}")
    print(f"[{args.ci_sweep}] store: {json.dumps(stats)}")

    if store.max_bytes is not None:
        disk_bytes = _segment_file_bytes(store.disk_dir)
        print(f"[{args.ci_sweep}] disk: {disk_bytes}/{store.max_bytes} bytes of segments")
        if disk_bytes > store.max_bytes:
            print(f"ERROR: segment files ({disk_bytes} bytes) exceed the "
                  f"{store.max_bytes}-byte quota", file=sys.stderr)
            return 1

    if args.ci_sweep == "second":
        # Memory hits alone would be vacuous (the sweep's own fits hit
        # in-process); cross-process persistence is only proven by hits
        # that came off the disk tier.
        if stats["disk_hits"] <= 0:
            print("ERROR: second run recorded no disk-tier hits — cross-process "
                  "persistence is broken", file=sys.stderr)
            return 1
        total_hits = stats["hits"] + stats["disk_hits"]
        if not args.compare:
            print("ERROR: --ci-sweep second needs --compare <first-run.json>",
                  file=sys.stderr)
            return 2
        first = json.loads(Path(args.compare).read_text())
        if first["metrics"] != metrics:
            print("ERROR: cached sweep metrics drifted from the first run:\n"
                  f"  first:  {json.dumps(first['metrics'])}\n"
                  f"  second: {json.dumps(metrics)}", file=sys.stderr)
            return 1
        if first["store_stats"]["disk_hits"] > 0:
            print("NOTE: first run already saw disk hits (pre-warmed cache dir)")
        print(f"[second] OK: {total_hits} store hits, metrics bit-identical")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes, no speedup gate (CI wiring check)")
    parser.add_argument("--output", default=None,
                        help="result JSON path (default: <repo>/BENCH_cache_store.json; "
                             "'-' skips writing)")
    parser.add_argument("--ci-sweep", choices=("first", "second"), default=None,
                        help="CI mode: run the 2-seed mini-sweep against "
                             "$REPRO_CACHE_DIR (phase 'second' asserts store hits "
                             "and bit-identical metrics)")
    parser.add_argument("--sweep-out", default="sweep-cache.json",
                        help="where --ci-sweep writes its metrics + store stats")
    parser.add_argument("--compare", default=None,
                        help="first-phase JSON to certify the second phase against")
    args = parser.parse_args(argv)
    if args.ci_sweep:
        return run_ci_sweep(args)
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
