"""Repository benchmark: four workloads, end-to-end and per-layer metrics.

Run one workload (the form the benchmark contract uses)::

    python3 perfbench/run.py --workload fit --seed 1 --seconds 15 --trace 0

or all four, each untraced and then traced, each in a fresh process::

    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a separate run with the layer wrappers installed.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``; the full record (machine stanza included) is written to
``.perfbench_out/`` in the working directory.

``--record 0-15`` re-records the reference outputs in
``perfbench/expected.json`` for those seeds (do this in the commit that
changes floats, and only then).  See ``perfbench/WORKLOADS.md`` for why
each workload exists and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import time

_STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = Path(".perfbench_out")
WORKLOAD_NAMES = ("fit", "serve_hot", "serve_cold", "sweep")
#: The repeatable part of set-up runs this many times; its median counts.
SETUP_REPEATS = 3

#: (name, unit, better) of every end-to-end metric, every workload.  The
#: tail percentile is printed and recorded but not reported as a metric:
#: on the 2-CPU host it was measured on, ten runs' p99 spread 0.2-0.76.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def _per_layer() -> tuple:
    lower, higher = "lower", "higher"
    rows = [
        ("temporal.build_dtw_adjacency_s", "s", lower),
        ("temporal.dtw_pairs_computed", "count", lower),
        ("engine.dtw_pair_hit_ratio", "ratio", higher),
        ("engine.mask_fill_hit_ratio", "ratio", higher),
        ("engine.trainer.epoch_start_s", "s", lower),
        ("engine.trainer.run_epoch_s", "s", lower),
        ("engine.trainer.validate_s", "s", lower),
        ("engine.store.disk_hit_ratio", "ratio", higher),
        ("engine.store.disk_bytes", "bytes", lower),
        ("core.pseudo.fill_s", "s", lower),
        ("core.tcn.fwd_s", "s", lower),
        ("core.gcn.fwd_s", "s", lower),
        ("core.network.fwd_self_s", "s", lower),
        ("nn.loss.fwd_s", "s", lower),
        ("autograd.backward_s", "s", lower),
        ("optim.step_s", "s", lower),
    ]
    import workloads

    for op, phases in workloads.BACKEND_OPS.items():
        rows.append((f"backend.{op}.calls", "count", lower))
        rows += [(f"backend.{op}.{phase}_s", "s", lower) for phase in phases]
    rows += [("backend.other.fwd_s", "s", lower), ("backend.other.bwd_s", "s", lower)]
    rows += [
        ("transport.client_codec_ms", "ms", lower),
        ("transport.server_codec_ms", "ms", lower),
        ("transport.http_handle_ms", "ms", lower),
        ("transport.wire_ms", "ms", lower),
        ("scheduler.queue_wait_ms", "ms", lower),
        ("scheduler.batch_size_mean", "count", higher),
        ("service.cache_hit_ratio", "ratio", higher),
        ("service.predict_ms", "ms", lower),
        ("service.windows_per_predict", "count", higher),
        ("parallel.cell_s_sum", "s", lower),
    ]
    rows += [(f"parallel.cell_s.{m}", "s", lower) for m in workloads.SWEEP_MODELS]
    rows += [
        ("parallel.idle_share", "ratio", lower),
        ("loadgen.late_p99_ms", "ms", lower),
        ("unattributed_share", "ratio", lower),
        ("trace_overhead", "ratio", lower),
    ]
    return tuple(rows)


def _process_start() -> float:
    """Monotonic time this process started (``/proc``; else script start)."""
    try:
        with open("/proc/self/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime") as handle:
            uptime = float(handle.read().split()[0])
        age = uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.monotonic() - max(age, time.monotonic() - _STARTED)
    except (OSError, ValueError, IndexError):
        return _STARTED


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use (None when not OpenBLAS)."""
    import ctypes

    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def machine_stanza() -> dict:
    """What results depend on; results with different stanzas do not compare."""
    import numpy as np
    from repro.backend import get_backend

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without dict mode or BLAS entry
        pass
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "cpu_count": cpus,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "kernel": platform.release(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": getattr(get_backend(), "name", "?"),
    }


def _peak_rss_mb(include_children: bool) -> float:
    # ru_maxrss is KiB on Linux.  Children: the largest reaped child.
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        rss += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return rss / 1024.0


def end_to_end(workload, ops: list, setup_s: float) -> tuple[dict, int, int, dict]:
    """End-to-end metrics, attempted/failed counts and named extras."""
    from loadgen import quantile, tail_percentile

    name = workload.name
    if name.startswith("serve"):
        latencies = [s.latency for s in ops]
        failed = sum(not s.ok for s in ops)
        completed = len(ops) - failed
        wall = max(s.done for s in ops) - min(s.due for s in ops)
    else:
        # A failed fit or sweep raises and ends the run.
        latencies = [op.seconds for op in ops]
        failed, completed = 0, len(ops)
        wall = sum(latencies)
    pct = tail_percentile(len(latencies))
    tail_ms = 1e3 * quantile(latencies, pct / 100.0 if pct is not None else 1.0)
    metrics = {
        "setup_s": setup_s,
        "op_p50_ms": 1e3 * quantile(latencies, 0.5),
        "ops_per_s": completed / wall if wall > 0 else 0.0,
        "peak_rss_mb": _peak_rss_mb(include_children=name == "sweep"),
    }
    extras = {"tail_percentile": pct if pct is not None else 100.0,
              "op_tail_ms": tail_ms, "failed_share": failed / max(len(ops), 1)}
    if name == "fit":
        extras["fit_s"] = statistics.median(op.detail["fit_s"] for op in ops)
        extras["predict_s"] = statistics.median(op.detail["predict_s"] for op in ops)
    elif name == "sweep":
        extras["sweep_s"] = statistics.median(latencies)
    else:
        extras["req_p50_ms"] = metrics["op_p50_ms"]
        extras[f"req_p{pct:g}_ms" if pct else "req_max_ms"] = tail_ms
        extras["req_per_s"] = metrics["ops_per_s"]
    return metrics, len(ops), failed, extras


def run_one(args) -> int:
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    tracer = None
    if args.trace:
        from spans import Tracer, install_layers

        tracer = Tracer()
        install_layers(tracer)
    from repro.backend import set_backend

    set_backend("numpy_ref")
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    workload.prepare()
    prepared = time.monotonic()
    setups = []
    for _ in range(SETUP_REPEATS):
        began = time.monotonic()
        workload.setup()
        setups.append(time.monotonic() - began)
    setup_s = (prepared - _process_start()) + statistics.median(setups)
    ops = workload.measure(args.seconds, tracer)
    correct, note = workload.check()
    metrics, attempted, failed, extras = end_to_end(workload, ops, setup_s)
    warmup = workload.warmup
    phases = {
        # Serving warm-up requests can fail; a failed warm-up fit or
        # sweep raises.
        "warmup": {"attempted": len(warmup),
                   "failed": sum(not getattr(w, "ok", True) for w in warmup)},
        "measured": {"attempted": attempted, "failed": failed},
    }
    if args.trace:
        layers = workload.layer_metrics(tracer)
        catalogue = _per_layer()
        reported = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                    for name, unit, _better in catalogue}
    else:
        reported = {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit, _better in END_TO_END}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_stanza(), "setup_repeats_s": setups,
        "check": note, "phases": phases, "extras": extras, "metrics": reported,
        "op_seconds": [op.seconds for op in ops[:64] if hasattr(op, "seconds")],
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"machine {json.dumps(record['machine'], sort_keys=True)}")
    print(f"check   {'ok' if correct else 'FAILED'}: {note}")
    print(f"phases  {json.dumps(phases)}")
    for key, value in extras.items():
        print(f"        {key} = {value:.6g}")
    for name, entry in reported.items():
        print(f"metric  {name} = {entry['value']:.6g} {entry['unit']}")
    _stop_helpers()
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": reported,
    }))
    return 0


def _stop_helpers() -> None:
    """Stop multiprocessing's resource tracker (started by the sweep's
    process pool) and wait for it, so no process outlives the run."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run_all(args) -> int:
    """Every workload untraced, then traced, each in a fresh process."""
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace)]
            done = subprocess.run(command, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {done.returncode}\n{done.stderr}")
                status = 1
                continue
            result = json.loads(lines[-1])
            print(f"== {name} (trace {trace}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for line in lines[:-1]:
                if line.startswith(("check", "       ")):
                    print(line)
            for metric, entry in result["metrics"].items():
                print(f"   {metric:40s} {entry['value']:14.6g} {entry['unit']}")
            if not result["correct"] or result["failed"]:
                status = 1
    return status


def record_expected(seeds: list[int]) -> int:
    """Re-record reference fit outputs and serial sweep shas."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from repro.backend import set_backend

    set_backend("numpy_ref")
    import workloads

    expected = workloads.load_expected()
    for seed in seeds:
        fit = workloads.FitWorkload(seed)
        fit.setup()
        fit.ops = [fit._op()]
        expected.setdefault("fit", {})[str(seed)] = fit.record()
        sweep = workloads.SweepWorkload(seed)
        sweep.setup()
        expected.setdefault("sweep", {})[str(seed)] = sweep.record()
        print(f"recorded seed {seed}", flush=True)
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


def _seed_range(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="LOW-HIGH",
                        help="re-record expected.json for this seed range and exit")
    args = parser.parse_args(argv)
    if args.record:
        return record_expected(_seed_range(args.record))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
