"""Unified observability layer: metrics registry, tracing, profiling.

Three pieces, one opt-in switch (``REPRO_OBS=1``):

* :mod:`repro.obs.metrics` — thread-safe :class:`MetricsRegistry`
  (counters / gauges / fixed-bucket histograms with p50/p95/p99, always
  on) plus scrape-time collectors for computed snapshots; rendered by :func:`render_prometheus` on the
  HTTP server's ``GET /metrics`` and embedded as the ``metrics``
  section of :meth:`~repro.serving.ServingRuntime.stats`.
* :mod:`repro.obs.trace` — span-based request tracing: trace ids
  minted in :class:`~repro.serving.transport.ForecastClient`, carried
  in the wire codec's control header, propagated HTTP handler →
  scheduler → service → store; spans land in a ring-buffer
  :class:`TraceRecorder` exported as JSONL (``GET /v1/traces``,
  ``python -m repro.obs report``).
* :mod:`repro.obs.profiling` — the ``REPRO_OBS`` switch, trainer
  epoch/phase timings, and backend op-level counting.

The layer observes timings and counts only — never model bytes — so
every bitwise-parity contract in the repository holds with
observability on or off (gated by ``benchmarks/bench_obs.py``).
"""

from .metrics import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
    render_prometheus,
)
from .profiling import (
    CountingBackend,
    instrument_backend,
    maybe_instrument_backend,
    obs_enabled,
    set_obs_enabled,
)
from .trace import (
    TraceContext,
    TraceRecorder,
    current_trace,
    get_recorder,
    mint_span_id,
    mint_trace_id,
    record_span,
    span,
    use_trace,
)

__all__ = [
    "Counter",
    "CountingBackend",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "TraceContext",
    "TraceRecorder",
    "current_trace",
    "get_recorder",
    "global_registry",
    "instrument_backend",
    "maybe_instrument_backend",
    "mint_span_id",
    "mint_trace_id",
    "obs_enabled",
    "record_span",
    "render_prometheus",
    "set_obs_enabled",
    "span",
    "use_trace",
]
