"""Serving layer: batched, cached, scheduled forecasting on fitted models.

Four bricks toward the production system the ROADMAP aims at:

* :class:`ForecastService` — owns one fitted
  :class:`~repro.interfaces.Forecaster`, coalesces window-start requests
  into batched ``predict`` calls, and LRU-caches per-window results so
  repeated traffic never recomputes.
* :class:`MicroBatchScheduler` — accepts requests from many threads,
  answers result-cache hits at once on the caller's thread, and batches
  the misses behind a bounded admission-controlled queue that drains
  through the service on one background worker, which dispatches
  whatever is queued as soon as it is free, so concurrent callers batch
  with each other.
* :class:`ServingRuntime` — hosts many named fitted models (one
  scheduler each), routes requests by model key, and aggregates
  per-model latency/throughput/cache telemetry.
* :mod:`repro.serving.transport` — the wire: a versioned binary codec,
  a threaded HTTP/1.1 server over a runtime, a blocking
  :class:`~repro.serving.transport.ForecastClient`, and a multi-worker
  launcher (``python -m repro.serving serve``).

Failures share one public taxonomy (:mod:`repro.serving.errors`):
:class:`ServingError` with :class:`QueueFull` (retryable, HTTP 503),
:class:`ModelNotFound` (HTTP 404) and :class:`InvalidRequest`
(HTTP 400) — wire error frames map 1:1 to the in-process exceptions.
"""

from .errors import InvalidRequest, ModelNotFound, QueueFull, ServingError
from .runtime import ServingRuntime
from .scheduler import AsyncForecast, MicroBatchScheduler
from .service import ForecastService

__all__ = [
    "AsyncForecast",
    "ForecastService",
    "InvalidRequest",
    "MicroBatchScheduler",
    "ModelNotFound",
    "QueueFull",
    "ServingError",
    "ServingRuntime",
]
