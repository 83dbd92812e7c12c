"""Observability walkthrough: trace one request, scrape the metrics.

What a production debugging session looks like on a laptop-sized
problem:

1. fit a small STSM and serve it over HTTP with observability ON
   (``set_obs_enabled(True)`` here; ``REPRO_OBS=1`` in a shell does the
   same for a real deployment — off by default, zero overhead);
2. issue one traced forecast: the client mints a trace id, sends it in
   the wire frame's control header, and every layer it crosses —
   server handler, scheduler, service, artifact store — records spans
   under that SAME id;
3. pull the spans back over ``GET /v1/traces`` and render the flame
   tree with the ``python -m repro.obs report`` renderer;
4. scrape ``GET /metrics`` (Prometheus exposition) and read the same
   counters as JSON from the runtime's ``stats()``.

Run::

    PYTHONPATH=src python examples/trace_a_request.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import STSMConfig, STSMForecaster
from repro.data import WindowSpec, space_split, temporal_split
from repro.data.synthetic import make_dataset
from repro.engine import ArtifactStore
from repro.evaluation import forecast_window_starts
from repro.obs import set_obs_enabled
from repro.obs.__main__ import report
from repro.serving import ServingRuntime
from repro.serving.service import ForecastService
from repro.serving.transport import ForecastClient, ForecastHTTPServer


def main() -> int:
    # ------------------------------------------------------------------
    # 1. Fit and serve with observability on.
    # ------------------------------------------------------------------
    dataset = make_dataset("pems-bay", num_sensors=16, num_days=2, seed=7)
    split = space_split(dataset.coords, "horizontal")
    spec = WindowSpec(input_length=8, horizon=8)
    train_ix, _ = temporal_split(dataset.num_steps)
    model = STSMForecaster(STSMConfig(
        hidden_dim=8, num_blocks=1, tcn_levels=2, gcn_depth=1, epochs=1,
        patience=1, batch_size=8, window_stride=8, top_k=6, seed=7,
    ))
    print("[1/4] fitting STSM ...")
    model.fit(dataset, split, spec, train_ix)
    starts = forecast_window_starts(dataset, spec, max_windows=16)

    set_obs_enabled(True)  # what REPRO_OBS=1 does for a whole process
    try:
        # A store-backed service so the trace reaches the deepest layer
        # (artifact-store probes show up as store.get / store.put spans).
        store = ArtifactStore()
        service = ForecastService(model, store=store)
        with ServingRuntime() as runtime:
            runtime.attach_store(store)
            runtime.register("stsm/pems-bay", service)
            with ForecastHTTPServer(runtime).start() as server:
                server.set_ready()
                print(f"      serving on http://127.0.0.1:{server.port} "
                      f"with tracing enabled")

                # ------------------------------------------------------
                # 2. One traced request end to end.
                # ------------------------------------------------------
                with ForecastClient("127.0.0.1", server.port) as client:
                    block = client.forecast_one("stsm/pems-bay", int(starts[0]))
                    trace_id = client.last_trace_id
                    print(f"[2/4] served a {block.shape} block under "
                          f"trace {trace_id}")

                    # ------------------------------------------------------
                    # 3. Export the trace and render the flame tree.
                    # ------------------------------------------------------
                    spans = client.traces(trace_id)
                    print(f"[3/4] {len(spans)} span(s) from GET /v1/traces:")
                    report(spans)

                    # ------------------------------------------------------
                    # 4. Metrics: Prometheus text and the stats() mirror.
                    # ------------------------------------------------------
                    exposition = client.metrics_text()
                    wanted = ("repro_requests_completed_total",
                              "repro_request_latency_seconds_bucket",
                              "repro_store_hits_total")
                    lines = [line for line in exposition.splitlines()
                             if line.startswith(wanted)]
                    print(f"[4/4] GET /metrics ({len(exposition.splitlines())} "
                          f"lines); a few:")
                    for line in lines[:6]:
                        print(f"      {line}")
                    counters = runtime.stats()["metrics"]["counters"]
                    completed = counters[
                        'repro_requests_completed_total{model="stsm/pems-bay"}'
                    ]
                    print(f"      stats()['metrics'] agrees: "
                          f"completed={completed}")
            runtime.drain()
    finally:
        set_obs_enabled(None)  # back to the environment's default
    print("      done")
    return 0


if __name__ == "__main__":
    sys.exit(main())
