"""Table 5 — model training and testing time.

Paper: GE-GAN needs hours of training (slow GAN convergence); IGNNK and
INCREASE train fastest but are the slowest at test time; STSM tests much
faster than the kriging baselines (1-2 s vs 7-10 s).

Reproduction target (shape): relative ordering of test times — GE-GAN and
STSM faster at test than the per-node kriging loop per prediction
workload — and GE-GAN's training-cost disadvantage when its iteration
budget reflects its slow convergence.

Test time is measured as the minimum of three ``predict`` calls over the
same window set (single calls at reduced scale are sub-10 ms and dominated
by scheduler noise).

``use_service=True`` routes every timing repeat through a
:class:`~repro.serving.ForecastService` instead of raw ``predict`` calls:
the first repeat is a cold coalesced batch, later repeats replay the same
window traffic and are served from the result cache, and the service's
cache-hit / coalesce counters are folded into the report (columns from
:func:`~repro.experiments.reporting.service_columns`; ``Warm(s)`` is the
best cache-served repeat).

``serve_concurrency > 0`` (with ``use_service``) additionally replays the
window traffic from that many concurrent client threads through a
:class:`~repro.serving.MicroBatchScheduler` layered over the same
(already warm) service — sustained throughput and client-observed
p50/p95/p99 latency join the table via
:func:`~repro.experiments.reporting.latency_columns`.

``serve_wire=True`` (with ``serve_concurrency``) replays the same
concurrent traffic once more over real HTTP: the scheduler is hosted in
an in-process :class:`~repro.serving.transport.ForecastHTTPServer` and
hit through per-thread :class:`~repro.serving.transport.ForecastClient`
connections, adding ``Wire``-prefixed throughput/latency columns — one
table comparing direct, service, scheduler, and HTTP serving.
"""

from __future__ import annotations

import time

import numpy as np

from ..data.splits import space_split, temporal_split
from ..evaluation import compute_metrics, forecast_window_starts, stack_truth
from .configs import get_scale
from .reporting import format_table, latency_columns, service_columns
from .runners import build_dataset, build_model

__all__ = ["run"]

_TIMING_REPEATS = 3


def run(
    scale_name: str = "small",
    datasets: list[str] | None = None,
    models: list[str] | None = None,
    seed: int = 0,
    use_service: bool = False,
    serve_concurrency: int = 0,
    serve_wire: bool = False,
) -> dict:
    """Measure wall-clock train/test time per model per dataset."""
    if serve_concurrency > 0 or serve_wire:
        use_service = True  # the concurrent replay rides on the service
    if serve_wire and serve_concurrency <= 0:
        serve_concurrency = 4  # the wire replay reuses the concurrent schedule
    scale = get_scale(scale_name)
    keys = datasets if datasets is not None else ["pems-bay", "pems-07", "pems-08", "melbourne"]
    model_names = models if models is not None else ["GE-GAN", "IGNNK", "INCREASE", "STSM"]
    rows = []
    for key in keys:
        dataset = build_dataset(key, scale)
        split = space_split(dataset.coords, "horizontal")
        spec = scale.window_spec(key)
        train_ix, _test_ix = temporal_split(dataset.num_steps)
        starts = forecast_window_starts(
            dataset, spec, max_windows=scale.max_test_windows
        )
        truth = stack_truth(dataset, split, spec, starts)
        for model_name in model_names:
            model = build_model(
                model_name, key, scale, num_observed=len(split.observed), seed=seed
            )
            began = time.perf_counter()
            model.fit(dataset, split, spec, train_ix)
            train_seconds = time.perf_counter() - began
            service = None
            if use_service:
                from ..serving import ForecastService  # local import: avoid cycle

                service = ForecastService(model, cache_size=max(len(starts), 1))
                predict = service.forecast
            else:
                predict = model.predict
            timings = []
            predictions = None
            for _ in range(_TIMING_REPEATS):
                began = time.perf_counter()
                predictions = predict(starts)
                timings.append(time.perf_counter() - began)
            test_seconds = float(min(timings))
            metrics = compute_metrics(predictions, truth)
            row = {
                "Dataset": key,
                "Model": model_name,
                "Train(s)": round(train_seconds, 2),
                "Test(s)": round(test_seconds, 4),
                "RMSE": metrics.rmse,
                "_train_seconds": train_seconds,
                "_test_seconds": test_seconds,
            }
            if service is not None:
                # Repeat 1 is the cold coalesced batch; later repeats are
                # cache-served.  Keep Test(s)/_test_seconds as the cold
                # time (comparable with non-service runs) and report the
                # cache-served minimum separately.
                warm = min(timings[1:]) if len(timings) > 1 else None
                row["Test(s)"] = round(timings[0], 4)
                row["Warm(s)"] = round(warm, 4) if warm is not None else None
                row["_test_seconds"] = timings[0]
                row["_warm_seconds"] = warm
                row.update(service_columns(service.stats))
                row["_service"] = service.stats
            if service is not None and serve_concurrency > 0:
                from ..serving import LoadGenerator, LoadSpec, MicroBatchScheduler

                # Layer a micro-batching scheduler over the (warm)
                # service and hammer it from concurrent client threads
                # replaying Zipf traffic over the same window pool.
                load_spec = LoadSpec(
                    num_threads=serve_concurrency,
                    requests_per_thread=max(len(starts), 16),
                    seed=seed,
                )
                generator = LoadGenerator([int(s) for s in starts], load_spec)
                # The scheduler wraps the service the serial repeats
                # already exercised; snapshot its counters so the
                # concurrent leg can be reported as a delta rather than
                # conflated with the warm-up traffic.
                before = {
                    k: v
                    for k, v in service.stats.items()
                    if isinstance(v, (int, float)) and k != "cache_hit_pct"
                }
                # Context manager: a predict failure mid-replay must not
                # leak the worker thread.
                with MicroBatchScheduler(
                    service, name=f"table5[{model_name}]"
                ) as scheduler:
                    report = generator.run(
                        lambda s: scheduler.submit(s).result(), collect_results=False
                    )
                after = service.stats
                delta = {k: after[k] - value for k, value in before.items()}
                delta["cache_hit_pct"] = (
                    100.0 * delta["cache_hits"] / delta["requests"]
                    if delta["requests"] else 0.0
                )
                load_summary = report.summary()
                row.update(latency_columns(load_summary))
                row["_serve"] = {
                    "load": load_summary,
                    "scheduler": scheduler.stats,
                    "service_delta": delta,
                }
                if serve_wire:
                    from ..serving import ServingRuntime
                    from ..serving.loadgen import WireDriver
                    from ..serving.transport import ForecastHTTPServer

                    # Replay the same deterministic schedule once more,
                    # over real HTTP: an in-process server hosts a fresh
                    # scheduler over the same warm service, and each
                    # client thread speaks the wire codec through its
                    # own kept-alive connection.  The Wire-prefixed
                    # columns land next to the scheduler's, so one row
                    # reads direct / service / scheduler / HTTP.
                    with ServingRuntime() as runtime:
                        runtime.register(model_name, service)
                        with ForecastHTTPServer(runtime).start() as server:
                            server.set_ready()
                            with WireDriver("127.0.0.1", server.port,
                                            model_name) as driver:
                                wire_report = generator.run(
                                    driver, collect_results=False
                                )
                            wire_transport = server.transport_stats()
                    wire_summary = wire_report.summary()
                    row.update(latency_columns(wire_summary, prefix="Wire "))
                    row["_serve_wire"] = {
                        "load": wire_summary,
                        "transport": wire_transport,
                    }
            rows.append(row)
    rows_for_text = [
        {k: v for k, v in row.items() if not k.startswith("_")} for row in rows
    ]
    return {"rows": rows, "text": format_table(rows_for_text)}
