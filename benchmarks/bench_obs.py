"""Observability-overhead benchmark: serving with REPRO_OBS off vs on.

Drives identical seeded-Zipf wire traffic (closed loop, one
:class:`~repro.serving.transport.ForecastClient` per client thread —
``bench_serving_load.wire_load`` — against an in-process
:class:`~repro.serving.transport.ForecastHTTPServer`)
through the same fitted STSM model in two modes, interleaved
``--repeats`` times to cancel thermal/background drift:

* **disabled** — ``set_obs_enabled(False)``: no trace headers, no span
  recording, the steady-state configuration;
* **enabled** — ``set_obs_enabled(True)``: every request is traced end
  to end (client span -> wire header -> server/scheduler/service/store
  spans) and the metrics registry is live.

Three certifications, all enforced by the exit code:

* **parity** — the served forecast bytes must be positionwise bitwise
  identical across every leg of both modes (observability may read
  timings and counts, never model bytes);
* **trace** — a dedicated cold probe request in each enabled leg must
  yield ONE trace id whose ``GET /v1/traces`` export contains the full
  span chain (client -> server -> scheduler -> service -> store), and
  the ``GET /metrics`` exposition must carry every required metric
  family (this is the CI wiring check);
* **overhead** — full mode only: the median enabled throughput must be
  within :data:`OVERHEAD_LIMIT_PCT` (5%) of the median disabled
  throughput.  Smoke runs record the number but do not gate on it
  (single-CPU CI runners make sub-5% timing calls meaningless).

Run::

    PYTHONPATH=src python benchmarks/bench_obs.py            # full
    PYTHONPATH=src python benchmarks/bench_obs.py --smoke    # CI wiring

Writes ``BENCH_obs.json`` at the repository root (override with
``--output``; ``-`` skips writing).  Smoke and full runs emit the same
JSON key set, so the committed baseline schema-gates both.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_serving_load import MODEL_KEY, fit_model, wire_load  # noqa: E402

from repro.backend import get_backend  # noqa: E402
from repro.engine import ArtifactStore  # noqa: E402
from repro.obs import get_recorder, set_obs_enabled  # noqa: E402
from repro.serving import ServingRuntime  # noqa: E402
from repro.serving.service import ForecastService  # noqa: E402
from repro.serving.transport import ForecastClient, ForecastHTTPServer  # noqa: E402

#: Full-mode gate: tracing every request end to end may cost at most
#: this much of the disabled-mode serving throughput (median vs median).
OVERHEAD_LIMIT_PCT = 5.0

#: Span names one cold traced request must produce at every layer.
REQUIRED_SPANS = (
    "client.request",
    "server.request",
    "scheduler.queue_wait",
    "scheduler.batch_dispatch",
    "service.cache_lookup",
    "service.predict",
    "store.get",
)

#: Metric families the ``/metrics`` exposition must always carry.
REQUIRED_METRICS = (
    "repro_request_latency_seconds_bucket",
    "repro_request_latency_seconds_count",
    "repro_requests_submitted_total",
    "repro_requests_completed_total",
    "repro_batches_total",
    "repro_cache_hits_total",
    "repro_predict_calls_total",
    "repro_store_hits_total",
    "repro_transport_requests_total",
    "repro_queue_depth",
)


def run_leg(
    model,
    pool: list[int],
    load: dict,
    *,
    obs_on: bool,
    max_batch: int,
    probe_start: int | None,
) -> tuple[dict, list, dict | None]:
    """One serving leg: fresh store/service/runtime, wire load, teardown.

    Every leg rebuilds the whole stack so cache state is identical
    across legs (first request to a window always computes, repeats
    always hit).  With ``obs_on`` and a ``probe_start``, a dedicated
    traced probe request — a window *excluded* from the load pool, so
    its full cold path runs — is issued after the measured load and its
    trace/metrics exports are certified.
    """
    set_obs_enabled(obs_on)
    recorder = get_recorder()
    recorder.clear()
    store = ArtifactStore()
    service = ForecastService(
        model, store=store, store_scope=b"bench-obs",
        cache_size=max(256, len(pool) + 1),
    )
    probe = None
    try:
        with ServingRuntime(max_batch=max_batch, max_queue=4096) as runtime:
            runtime.attach_store(store)
            runtime.register(MODEL_KEY, service)
            with ForecastHTTPServer(runtime).start() as server:
                server.set_ready()
                summary, results = wire_load(server.port, pool, **load)
                runtime.drain()
                if obs_on and probe_start is not None:
                    probe = _run_probe(model, server.port, probe_start)
    finally:
        set_obs_enabled(False)
        recorder.clear()
    return summary, results, probe


def _run_probe(model, port: int, probe_start: int) -> dict:
    """One cold traced request; certify span chain + /metrics names."""
    with ForecastClient("127.0.0.1", port, trace=True) as client:
        block = client.forecast_one(MODEL_KEY, probe_start)
        trace_id = client.last_trace_id
        exported = client.traces(trace_id)
        metrics_text = client.metrics_text()
    names = sorted({span["name"] for span in exported})
    direct = model.predict(np.asarray([probe_start], dtype=int))[0]
    return {
        "trace_id": trace_id,
        "span_count": len(exported),
        "span_names": names,
        "one_trace_id": all(span["trace"] == trace_id for span in exported),
        "required_spans_present": all(
            required in names for required in REQUIRED_SPANS
        ),
        "required_metrics_present": all(
            required in metrics_text for required in REQUIRED_METRICS
        ),
        "probe_parity": bool(np.array_equal(block, direct)),
    }


def positionwise_parity(reference: list, results: list) -> bool:
    """Same (start, bytes) at every (thread, position) across two legs."""
    if len(reference) != len(results):
        return False
    for ref_thread, got_thread in zip(reference, results):
        if len(ref_thread) != len(got_thread):
            return False
        for (ref_start, ref_value), (got_start, got_value) in zip(
            ref_thread, got_thread
        ):
            if ref_start != got_start or not np.array_equal(ref_value, got_value):
                return False
    return True


def _median_leg(summaries: list[dict]) -> dict:
    """The median-throughput repeat, annotated with every repeat's rate."""
    ordered = sorted(summaries, key=lambda s: s["throughput_rps"])
    median = dict(ordered[len(ordered) // 2])
    median["repeat_throughputs"] = [
        round(s["throughput_rps"], 1) for s in ordered
    ]
    return median


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny load / single-epoch fit (CI wiring check; "
                             "overhead recorded but not gated)")
    parser.add_argument("--threads", type=int, default=None,
                        help="client threads (default: 8 full, 4 smoke)")
    parser.add_argument("--requests", type=int, default=None,
                        help="requests per thread (default: 150 full, 20 smoke)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="interleaved repeats per mode; medians are "
                             "compared (default: 3 full, 1 smoke)")
    parser.add_argument("--max-batch", type=int, default=64,
                        help="scheduler max batch trigger")
    parser.add_argument("--zipf", type=float, default=1.1,
                        help="Zipf popularity exponent of the window pool")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default=None,
                        help="result JSON path (default: <repo>/BENCH_obs.json; "
                             "'-' skips writing)")
    args = parser.parse_args(argv)

    threads = args.threads if args.threads is not None else (4 if args.smoke else 8)
    requests = args.requests if args.requests is not None else (20 if args.smoke else 150)
    repeats = args.repeats if args.repeats is not None else (1 if args.smoke else 3)
    if repeats < 1:
        parser.error("--repeats must be >= 1")
    fit_kwargs = (
        dict(sensors=16, days=2, epochs=1, hidden=8)
        if args.smoke
        else dict(sensors=24, days=3, epochs=2, hidden=16)
    )

    # Fit with observability off so the cached array backend is the
    # plain (uncounted) one in both modes — the legs then differ only
    # in the serving-path instrumentation this benchmark measures.
    set_obs_enabled(False)
    print(f"[fitting STSM ({'smoke' if args.smoke else 'full'}) ...]")
    model, pool, _recipe = fit_model("pems-bay", seed=args.seed, **fit_kwargs)
    # The coldest-ranked window is held out of the load pool so the
    # enabled-leg probe request is guaranteed a full cold path
    # (queue wait -> batch dispatch -> cache lookup -> predict -> store).
    pool = [int(s) for s in pool]
    load_pool, probe_start = pool[:-1], pool[-1]
    load = dict(threads=threads, requests=requests, zipf=args.zipf,
                seed=args.seed)

    legs: dict[str, list[dict]] = {"disabled": [], "enabled": []}
    probes: list[dict] = []
    reference_results: list | None = None
    parity = True
    try:
        for repeat in range(repeats):
            for mode, obs_on in (("disabled", False), ("enabled", True)):
                print(f"[{mode} leg {repeat + 1}/{repeats}: "
                      f"{threads} threads x {requests} requests]")
                summary, results, probe = run_leg(
                    model, load_pool, load, obs_on=obs_on,
                    max_batch=args.max_batch,
                    probe_start=probe_start if obs_on else None,
                )
                legs[mode].append(summary)
                if probe is not None:
                    probes.append(probe)
                if reference_results is None:
                    reference_results = results
                else:
                    parity = parity and positionwise_parity(
                        reference_results, results
                    )
    finally:
        set_obs_enabled(None)

    disabled = _median_leg(legs["disabled"])
    enabled = _median_leg(legs["enabled"])
    overhead_pct = (
        disabled["throughput_rps"] / enabled["throughput_rps"] - 1.0
    ) * 100.0
    trace = probes[0]
    trace_ok = all(
        p["one_trace_id"] and p["required_spans_present"]
        and p["required_metrics_present"] and p["probe_parity"]
        for p in probes
    )

    for label, leg in (("disabled", disabled), ("enabled", enabled)):
        lat = leg["latency"]
        print(
            f"{label:9s} {leg['throughput_rps']:9.0f} req/s   "
            f"p50 {lat['p50_ms']:7.2f} ms   p99 {lat['p99_ms']:7.2f} ms   "
            f"(repeats: {leg['repeat_throughputs']})"
        )
    print(
        f"overhead  {overhead_pct:+.2f}%   "
        f"(limit {OVERHEAD_LIMIT_PCT}%, "
        + ("enforced" if not args.smoke else "informational in smoke")
        + ")"
    )
    print(
        f"trace     id={trace['trace_id']}  {trace['span_count']} span(s)  "
        f"chain={'ok' if trace_ok else 'BROKEN'}   parity={parity}"
    )

    results_doc = {
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
            "repeats": repeats,
            "pool_size": len(load_pool),
            "zipf_exponent": args.zipf,
            "max_batch": args.max_batch,
            "seed": args.seed,
            "fit": fit_kwargs,
        },
        "disabled": disabled,
        "enabled": enabled,
        "overhead_pct": overhead_pct,
        "overhead_limit_pct": OVERHEAD_LIMIT_PCT,
        "overhead_gate_enforced": not args.smoke,
        "parity": {"bitwise_across_modes": parity},
        "trace": trace,
        "metrics": {
            "required_names": list(REQUIRED_METRICS),
            "all_present": all(p["required_metrics_present"] for p in probes),
        },
    }

    if args.output != "-":
        output = Path(args.output) if args.output else REPO_ROOT / "BENCH_obs.json"
        output.write_text(json.dumps(results_doc, indent=2) + "\n")
        print(f"[wrote {output}]")

    if not parity:
        print("ERROR: served bytes differ between obs modes", file=sys.stderr)
        return 1
    if not trace_ok:
        print("ERROR: trace/metrics certification failed "
              "(span chain, required metric names, or probe parity)",
              file=sys.stderr)
        return 1
    if not args.smoke and overhead_pct > OVERHEAD_LIMIT_PCT:
        print(
            f"ERROR: observability overhead {overhead_pct:.2f}% exceeds the "
            f"{OVERHEAD_LIMIT_PCT}% limit",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
