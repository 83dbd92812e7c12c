"""Micro-batching request scheduler: concurrent callers, batched predicts.

:class:`~repro.serving.ForecastService` coalesces only the starts of
one ``forecast`` call, so two threads asking for forecasts at the same
instant each pay a full ``predict`` call.  :class:`MicroBatchScheduler`
closes that gap: callers from any thread :meth:`~MicroBatchScheduler.submit` window starts and
get a future-like :class:`AsyncForecast` back; a single background
worker thread collects whatever arrived within a short **micro-batch
deadline** (default 2 ms) — or dispatches early once **max_batch**
requests are queued — and serves the batch with one
:meth:`~repro.serving.ForecastService.forecast` call, the service's
cache+coalesce path.

Under concurrent load the worker is busy predicting while new requests
pile up, so batches form naturally and per-call overhead (graph setup,
batch padding, python dispatch) is amortised across the batch; the
deadline only matters when the system is idle, where it bounds the
latency a lone request pays waiting for company.

**Admission control.**  The queue is bounded (``max_queue``).  When it
is full, ``admission="block"`` makes ``submit`` wait for space
(backpressure propagates to callers), while ``admission="reject"``
raises :class:`QueueFull` immediately (shed load, keep latency flat).

**Zero-drift contract.**  All model access happens on the worker thread
through the owned :class:`ForecastService`, which sorts and dedups
each batch before calling the model's own ``predict`` — so every
served block is bitwise a byte the caller could have produced with a
direct ``predict`` call, and cached repeats are bitwise stable.  The
scheduler adds concurrency and batching, never arithmetic.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future

import numpy as np

from ..interfaces import Forecaster
from ..obs.metrics import LATENCY_BUCKETS, Histogram
from ..obs.trace import TraceContext, record_span, span
from .errors import InvalidRequest, QueueFull
from .service import ForecastService

__all__ = ["AsyncForecast", "LatencyRecorder", "MicroBatchScheduler", "QueueFull"]


class AsyncForecast:
    """Future-like handle for a request submitted to the scheduler.

    ``result()`` blocks until the worker thread has served the request
    (or raises the exception that killed its batch / the scheduler).
    """

    def __init__(self, start: int, future: Future) -> None:
        self.start = start
        self._future = future

    def done(self) -> bool:
        return self._future.done()

    def result(self, timeout: float | None = None) -> np.ndarray:
        return self._future.result(timeout)


class LatencyRecorder:
    """Fixed-bucket latency histogram with percentile readout.

    Built on the shared :class:`~repro.obs.metrics.Histogram` type
    (bucket bounds: :data:`~repro.obs.metrics.LATENCY_BUCKETS` —
    exponential 100 µs → 10 s, +inf overflow), so every recorded
    latency costs O(1) memory and the recorder never grows with load.
    ``count``/``mean``/``max`` are exact; p50/p95/p99 are estimated by
    linear interpolation inside the bucket holding the quantile rank —
    resolution is one bucket width, monotone by construction
    (p50 <= p95 <= p99 always).  Appends come from the scheduler worker
    thread and, when the cache-hit fast path is on, from submitter
    threads too; the histogram child's internal lock keeps counts
    exact.

    The ``histogram`` parameter lets a caller aim recordings at a
    registry-owned family child (the runtime labels one per model so
    ``GET /metrics`` exposes real latency buckets); by default the
    recorder owns a private anonymous histogram.
    """

    def __init__(self, histogram=None) -> None:
        self._hist = (
            histogram
            if histogram is not None
            else Histogram(
                "request_latency_seconds", "", buckets=LATENCY_BUCKETS
            ).labels()
        )

    @property
    def count(self) -> int:
        return self._hist.count

    @property
    def histogram(self):
        """The underlying histogram child (bucket exposition hooks)."""
        return self._hist

    def record(self, seconds: float) -> None:
        self._hist.observe(seconds)

    def summary(self) -> dict:
        """Latency percentiles in milliseconds (the shared summary shape)."""
        stats = self._hist.summary()
        if stats["count"] == 0:
            return {"count": 0, "p50_ms": None, "p95_ms": None, "p99_ms": None,
                    "mean_ms": None, "max_ms": None}
        return {
            "count": stats["count"],
            "p50_ms": 1e3 * stats["p50"],
            "p95_ms": 1e3 * stats["p95"],
            "p99_ms": 1e3 * stats["p99"],
            "mean_ms": 1e3 * stats["mean"],
            "max_ms": 1e3 * stats["max"],
        }


class _Request:
    __slots__ = ("start", "future", "enqueued_at", "trace")

    def __init__(self, start: int, future: Future, enqueued_at: float,
                 trace: TraceContext | None = None) -> None:
        self.start = start
        self.future = future
        self.enqueued_at = enqueued_at
        self.trace = trace


class MicroBatchScheduler:
    """Batch concurrent forecast requests through one worker thread.

    Parameters
    ----------
    forecaster:
        A fitted :class:`~repro.interfaces.Forecaster`, or an existing
        :class:`ForecastService` to drain through (its cache and
        counters are then shared with whoever else holds it).
    deadline_ms:
        Micro-batch window: how long the worker holds the first queued
        request open for companions before dispatching.  Smaller bounds
        idle-system latency; larger grows batches under light load.
    max_batch:
        Dispatch immediately once this many requests are queued (also
        the service's per-``predict`` chunk bound when the scheduler
        constructs the service itself).
    max_queue:
        Bound on queued (not yet dispatched) requests — the admission
        control limit.
    admission:
        ``"block"`` (default) parks ``submit`` callers until the queue
        has space; ``"reject"`` raises :class:`QueueFull` instead.
    cache_size:
        Result-cache capacity when the scheduler builds its own service.
        Passing it together with an existing service is an error (the
        service already owns a sized cache).
    log_batches:
        Parity-replay support: ``True`` enables the service's
        ``batch_log`` — also on an existing service that was built
        without one (never disables an already-active log).
    cache_fast_path:
        Serve result-cache hits directly on the submitting thread —
        zero queue hops, no worker-thread round trip, no admission wait.
        Off by default (the queue path preserves strict micro-batch
        telemetry semantics); the wire transport turns it on, where the
        two thread handoffs the queue costs per request dominate
        cache-hot serving.  Bytes are unchanged either way: a hit is the
        block the first computation cached.
    name:
        Label used for the worker thread and error messages.

    Note: when wrapping an existing service, the service's own
    ``max_batch_size`` still chunks each batch — the scheduler's
    ``max_batch`` only controls the dispatch trigger.
    """

    def __init__(
        self,
        forecaster: Forecaster | ForecastService,
        *,
        deadline_ms: float = 2.0,
        max_batch: int = 64,
        max_queue: int = 1024,
        admission: str = "block",
        cache_size: int | None = None,
        log_batches: bool = False,
        cache_fast_path: bool = False,
        name: str = "scheduler",
        latency_histogram=None,
    ) -> None:
        if deadline_ms < 0:
            raise ValueError(f"deadline_ms must be >= 0, got {deadline_ms}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if admission not in ("block", "reject"):
            raise ValueError(f"admission must be 'block' or 'reject', got {admission!r}")
        if isinstance(forecaster, ForecastService):
            if cache_size is not None:
                raise ValueError(
                    "cache_size cannot be applied to an existing ForecastService; "
                    "size its cache at construction instead"
                )
            self.service = forecaster
            if log_batches:
                self.service.enable_batch_log()
        else:
            self.service = ForecastService(
                forecaster,
                cache_size=256 if cache_size is None else cache_size,
                max_batch_size=max_batch,
                log_batches=log_batches,
            )
        self.deadline_s = deadline_ms / 1e3
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.admission = admission
        self.cache_fast_path = cache_fast_path
        self.name = name

        self._cond = threading.Condition()
        self._queue: deque[_Request] = deque()
        self._in_flight = 0  # submitted but not yet completed/failed
        self._closed = False

        # Telemetry (mutated under self._cond, except latency appends
        # which only the worker thread performs).
        self.submitted = 0
        self.completed = 0
        self.rejected = 0
        self.failed = 0
        self.batches = 0
        self.batched_requests = 0
        self.fast_hits = 0
        self.peak_queue_depth = 0
        self.max_batch_observed = 0
        # latency_histogram: optionally a registry-owned histogram child
        # (the runtime labels one per model for /metrics exposition).
        self.latency = LatencyRecorder(histogram=latency_histogram)
        self._first_submit_at: float | None = None
        self._last_complete_at: float | None = None

        self._worker = threading.Thread(
            target=self._run, name=f"{name}-worker", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def submit(self, start: int,
               trace: TraceContext | None = None) -> AsyncForecast:
        """Enqueue one window-start request from any thread.

        With :attr:`cache_fast_path` on, a request whose window is
        already in the result cache is answered on this thread with a
        pre-resolved handle — it never touches the queue, so it cannot
        be rejected, shed, or delayed behind a forming micro-batch.

        ``trace`` threads a request's trace context through the worker:
        the dispatch records queue-wait / batch-dispatch child spans
        against it, and the service's cache-lookup / predict spans too
        if it is the batch's first traced request (see
        :mod:`repro.obs.trace`).

        A start outside int64 raises :class:`InvalidRequest` here, at
        the intake the wire and in-process paths share, instead of
        failing the whole micro-batch it would have joined.
        """
        start = int(start)
        if not -(2**63) <= start < 2**63:
            raise InvalidRequest(f"window start {start} is outside the int64 range")
        if self.cache_fast_path:
            lookup_began = time.monotonic() if trace is not None else 0.0
            value = self.service.cached_block(start)
            if value is not None:
                fast: Future = Future()
                fast.set_result(value)
                with self._cond:
                    if self._closed:
                        raise RuntimeError(f"{self.name} is shut down")
                    self.submitted += 1
                    self.completed += 1
                    self.fast_hits += 1
                    if self._first_submit_at is None:
                        self._first_submit_at = time.monotonic()
                    self._last_complete_at = time.monotonic()
                self.latency.record(0.0)
                if trace is not None:
                    record_span(
                        "scheduler.cache_fast_path", trace,
                        lookup_began, time.monotonic(),
                        model=self.name, start=start,
                    )
                return AsyncForecast(start, fast)
        future: Future = Future()
        with self._cond:
            if self._closed:
                raise RuntimeError(f"{self.name} is shut down")
            while len(self._queue) >= self.max_queue:
                if self.admission == "reject":
                    self.rejected += 1
                    raise QueueFull(
                        f"{self.name} queue is at capacity "
                        f"({self.max_queue}); request for window {start} rejected"
                    )
                self._cond.wait()
                if self._closed:
                    raise RuntimeError(f"{self.name} is shut down")
            now = time.monotonic()
            if self._first_submit_at is None:
                self._first_submit_at = now
            self._queue.append(_Request(start, future, now, trace))
            self.submitted += 1
            self._in_flight += 1
            if len(self._queue) > self.peak_queue_depth:
                self.peak_queue_depth = len(self._queue)
            self._cond.notify_all()
        return AsyncForecast(start, future)

    def forecast(self, window_starts: np.ndarray) -> np.ndarray:
        """Submit many starts and block for the stacked results.

        Convenience for synchronous callers: all requests enter the
        queue before the first result is awaited, so they micro-batch
        with each other (and with any other thread's traffic).
        """
        window_starts = np.asarray(window_starts, dtype=int).ravel()
        if window_starts.size == 0:
            raise InvalidRequest("forecast() needs at least one window start")
        handles = [self.submit(int(s)) for s in window_starts]
        return np.stack([h.result() for h in handles], axis=0)

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if self._closed and not self._queue:
                    return
                # Micro-batch window: hold the batch open until the
                # oldest request's deadline passes or it fills up.
                # Shutdown flushes immediately.
                deadline = self._queue[0].enqueued_at + self.deadline_s
                while len(self._queue) < self.max_batch and not self._closed:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cond.wait(remaining)
                take = min(len(self._queue), self.max_batch)
                batch = [self._queue.popleft() for _ in range(take)]
                # Space freed: wake submitters blocked on admission.
                self._cond.notify_all()
            if batch:
                self._dispatch(batch)

    def _dispatch(self, batch: list[_Request]) -> None:
        served = 0
        dispatch_began = time.monotonic()
        traced = [req for req in batch if req.trace is not None]
        for req in traced:
            # Queue wait: measured from the submit-side enqueue stamp to
            # the moment the worker picked the batch up.
            record_span(
                "scheduler.queue_wait", req.trace,
                req.enqueued_at, dispatch_began,
                model=self.name, start=req.start,
            )
        # The batch is one service call.  Its own spans (service.*,
        # store.*) nest under the *first* traced request's batch_dispatch
        # — a batch mixing several traces attributes shared work to that
        # one (documented in DESIGN.md §15).
        try:
            with span("scheduler.batch_dispatch",
                      traced[0].trace if traced else None,
                      model=self.name, batch_size=len(batch)):
                blocks = self.service.forecast([req.start for req in batch])
            now = time.monotonic()
            for req in traced[1:]:
                record_span(
                    "scheduler.batch_dispatch", req.trace,
                    dispatch_began, now,
                    model=self.name, batch_size=len(batch),
                )
            for req, block in zip(batch, blocks):
                self.latency.record(now - req.enqueued_at)
                req.future.set_result(block)
                served += 1
        except BaseException as exc:  # noqa: BLE001 — propagate to callers
            for req in batch:
                if not req.future.done():
                    req.future.set_exception(exc)
        finally:
            with self._cond:
                self._in_flight -= len(batch)
                self.completed += served
                self.failed += len(batch) - served
                self.batches += 1
                self.batched_requests += len(batch)
                if len(batch) > self.max_batch_observed:
                    self.max_batch_observed = len(batch)
                if served:
                    self._last_complete_at = time.monotonic()
                self._cond.notify_all()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def drain(self, timeout: float | None = None) -> bool:
        """Block until every submitted request has completed or failed."""
        with self._cond:
            return self._cond.wait_for(lambda: self._in_flight == 0, timeout)

    def shutdown(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the scheduler.  Idempotent.

        ``drain=True`` (default) closes intake, serves everything
        already queued, then joins the worker.  ``drain=False`` fails
        all still-queued requests with ``RuntimeError`` and returns as
        soon as the worker exits (a batch already being predicted still
        completes).
        """
        with self._cond:
            if not self._closed:
                self._closed = True
                if not drain:
                    abandoned = list(self._queue)
                    self._queue.clear()
                    self._in_flight -= len(abandoned)
                    self.failed += len(abandoned)
                    for req in abandoned:
                        req.future.set_exception(
                            RuntimeError(f"{self.name} shut down before serving window {req.start}")
                        )
            self._cond.notify_all()
        if drain:
            self.drain(timeout)
        self._worker.join(timeout)

    def __enter__(self) -> "MicroBatchScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    @property
    def throughput_rps(self) -> float | None:
        """Completed requests per second, first submit → last completion."""
        with self._cond:
            if self._first_submit_at is None or self._last_complete_at is None:
                return None
            elapsed = self._last_complete_at - self._first_submit_at
            if elapsed <= 0:
                return None
            return self.completed / elapsed

    @property
    def stats(self) -> dict:
        with self._cond:
            snapshot = {
                "submitted": self.submitted,
                "completed": self.completed,
                "rejected": self.rejected,
                "failed": self.failed,
                "batches": self.batches,
                "fast_hits": self.fast_hits,
                "avg_batch_size": (
                    self.batched_requests / self.batches if self.batches else 0.0
                ),
                "max_batch_observed": self.max_batch_observed,
                "queue_depth": len(self._queue),
                "peak_queue_depth": self.peak_queue_depth,
                # Condition's default lock is an RLock, so the property
                # can re-enter it.
                "throughput_rps": self.throughput_rps,
            }
        snapshot["latency"] = self.latency.summary()
        snapshot["service"] = self.service.stats
        return snapshot
