"""Micro-batching request scheduler: concurrent callers, batched predicts.

:class:`~repro.serving.ForecastService` coalesces only the starts of
one ``forecast`` call, so two threads asking for forecasts at the same
instant each pay a full ``predict`` call.  :class:`MicroBatchScheduler`
closes that gap: callers from any thread
:meth:`~MicroBatchScheduler.submit_many` window starts and get
future-like :class:`AsyncForecast` handles back.  Result-cache hits
are answered at once on the calling thread — no queue hop, no handoff
to and from the worker, no admission wait — and a single background
worker thread dispatches the queued misses, up to **max_batch**
requests, the moment it is free, and serves the batch with one
:meth:`~repro.serving.ForecastService.forecast` call, the service's
cache+coalesce path.

**Dispatch when free.**  There is no batching timer: a lone miss on
an idle scheduler is dispatched at once, while under load new
requests pile up as the worker predicts, so batches form on their own
and per-call overhead is amortised across them.  One caller's windows
stay together because :meth:`~MicroBatchScheduler.submit_many` appends
a call's misses under one lock hold — a call of at most ``max_batch``
starts to an idle scheduler is at most one batch.

**Admission control.**  The queue is bounded (``max_queue``) and
holds misses only.  ``admission="reject"`` refuses a call whose misses
do not fit as a whole with :class:`QueueFull`, enqueuing and counting
nothing but the refusal; ``"block"`` enqueues what fits and waits for
space for the rest (backpressure).

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
from ..obs.metrics import MetricsRegistry
from ..obs.trace import TraceContext, record_span, span, use_trace
from .errors import InvalidRequest, QueueFull
from .service import ForecastService

__all__ = ["AsyncForecast", "MicroBatchScheduler", "QueueFull"]

#: The scheduler's counters: ``stats`` key -> (metric name, help).
_COUNTERS = {
    "submitted": ("repro_requests_submitted_total", "Requests accepted"),
    "completed": ("repro_requests_completed_total", "Requests served"),
    "rejected": ("repro_requests_rejected_total", "Requests refused at admission"),
    "failed": ("repro_requests_failed_total", "Accepted requests that failed"),
    "batches": ("repro_batches_total", "Micro-batches dispatched"),
}


class AsyncForecast:
    """Future-like handle for a request submitted to the scheduler.

    ``result()`` blocks until the worker thread has served the request
    (or raises the exception the request failed with on its own, or the
    one that stopped the scheduler).
    """

    def __init__(self, start: int, future: Future) -> None:
        self.start = start
        self._future = future

    def done(self) -> bool:
        return self._future.done()

    def result(self, timeout: float | None = None) -> np.ndarray:
        return self._future.result(timeout)


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
        :class:`ForecastService` to drain through (its cache is then
        shared with whoever else holds it; its counters move to this
        scheduler's registry and label).
    max_batch:
        The most requests one dispatch takes off the queue (also the
        service's per-``predict`` chunk bound when the scheduler
        constructs the service itself).
    max_queue:
        Bound on queued (not yet dispatched) misses — the admission
        control limit.
    admission:
        ``"block"`` (default) parks a call until the queue has space for
        the rest of its misses; ``"reject"`` refuses a call whose misses
        do not fit as a whole with :class:`QueueFull`, counting each of
        its starts as ``rejected``.
    cache_size:
        Result-cache capacity when the scheduler builds its own service.
        Passing it together with an existing service is an error (the
        service already owns a sized cache).
    log_batches:
        Parity-replay support: ``True`` enables the service's
        ``batch_log`` — also on an existing service that was built
        without one (never disables an already-active log).
    name:
        The ``model`` label of the scheduler's metrics and spans; also
        names the worker thread and appears in error messages.
    metrics:
        The :class:`~repro.obs.metrics.MetricsRegistry` that every count
        (the service's too), the latency histogram and the queue-depth
        gauge go to, as children labelled ``model=name`` (default: a
        private registry).  Two schedulers of one name on one registry
        — a blue/green swap's two sides — share one monotone series.

    Note: when wrapping an existing service, the service's own
    ``max_batch_size`` still chunks each batch — the scheduler's
    ``max_batch`` only bounds what one dispatch takes.
    """

    def __init__(
        self,
        forecaster: Forecaster | ForecastService,
        *,
        max_batch: int = 64,
        max_queue: int = 1024,
        admission: str = "block",
        cache_size: int | None = None,
        log_batches: bool = False,
        name: str = "scheduler",
        metrics: MetricsRegistry | None = None,
    ) -> None:
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
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.service.count_into(self.metrics, name)
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.admission = admission
        self.name = name

        self._cond = threading.Condition()
        self._queue: deque[_Request] = deque()
        # Accepted but not yet completed/failed: queued requests plus a
        # blocked call's not-yet-queued rest.
        self._in_flight = 0
        self._closed = False
        # shutdown(drain=False): fail what is unserved instead of serving it.
        self._abandoned = False

        # Telemetry.  Counters are incremented under self._cond so one
        # scheduler's stats snapshot is consistent; batch shape and
        # peaks describe this scheduler alone.
        self._counters = {
            field: self.metrics.counter(metric, help, ("model",)).labels(model=name)
            for field, (metric, help) in _COUNTERS.items()
        }
        self._queue_depth = self.metrics.gauge(
            "repro_queue_depth", "Requests queued, not yet dispatched", ("model",)
        ).labels(model=name)
        self.latency = self.metrics.histogram(
            "repro_request_latency_seconds",
            "End-to-end scheduler latency per served request",
            ("model",),
        ).labels(model=name)
        self._dispatched = 0
        self._batched_requests = 0
        self.peak_queue_depth = 0
        self.max_batch_observed = 0
        # Throughput window: this scheduler's first submit to its last
        # completion, over the completions the series gained meanwhile.
        self._first_submit_at: float | None = None
        self._completed_at_first_submit = 0
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
        """Enqueue one window-start request: ``submit_many([start])[0]``."""
        return self.submit_many([start], trace)[0]

    def submit_many(self, starts,
                    trace: TraceContext | None = None) -> list[AsyncForecast]:
        """Submit window starts from any thread in one step; one handle each.

        Every start is checked first, so one outside int64 raises
        :class:`InvalidRequest` with nothing enqueued.  Every start is
        then looked up in the result cache on this thread, under
        ``trace``: hits get pre-resolved handles and count in the
        service's ``cache_hits``; misses are appended under one lock
        hold with one wake-up, subject to the ``admission`` policy, and
        carry ``trace`` into the worker's spans.  A refused call counts
        nothing but the refusal.
        """
        starts = [int(start) for start in starts]
        for start in starts:
            if not -(2**63) <= start < 2**63:
                raise InvalidRequest(f"window start {start} is outside the int64 range")
        began = time.monotonic()
        with use_trace(trace):
            hits = self.service.lookup(starts)
        lookup_s = time.monotonic() - began
        futures = [Future() for _ in starts]
        queued: list[int] = []
        for i, start in enumerate(starts):
            if start in hits:
                futures[i].set_result(hits[start])
            else:
                queued.append(i)
        served = len(starts) - len(queued)
        with self._cond:
            if self._closed:
                raise RuntimeError(f"{self.name} is shut down")
            if (self.admission == "reject"
                    and len(self._queue) + len(queued) > self.max_queue):
                self._counters["rejected"].inc(len(starts))
                raise QueueFull(
                    f"{self.name} queue is at capacity ({self.max_queue}); "
                    f"request for {len(starts)} window(s) rejected"
                )
            now = time.monotonic()
            self._mark_first_submit(now)
            self._counters["submitted"].inc(len(starts))
            if served:
                self.service.count_hits(served)
                self._counters["completed"].inc(served)
                self._last_complete_at = now
            self._in_flight += len(queued)
            for n, i in enumerate(queued):
                while len(self._queue) >= self.max_queue and not self._abandoned:
                    # "block": let the worker take what is queued so far.
                    self.peak_queue_depth = self.max_queue
                    self._queue_depth.set(self.max_queue)
                    self._cond.notify_all()
                    self._cond.wait()
                if self._abandoned:
                    self._fail_unserved(
                        [_Request(starts[j], futures[j], now) for j in queued[n:]]
                    )
                    break
                self._queue.append(
                    _Request(starts[i], futures[i], time.monotonic(), trace)
                )
            self._queue_depth.set(len(self._queue))
            if len(self._queue) > self.peak_queue_depth:
                self.peak_queue_depth = len(self._queue)
            self._cond.notify_all()
        for _ in range(served):
            self.latency.observe(lookup_s)
        return [AsyncForecast(start, future) for start, future in zip(starts, futures)]

    def _mark_first_submit(self, now: float) -> None:
        """Open the throughput window (caller holds ``self._cond``)."""
        if self._first_submit_at is None:
            self._first_submit_at = now
            self._completed_at_first_submit = self._counters["completed"].value

    def forecast(self, window_starts: np.ndarray) -> np.ndarray:
        """Submit many starts and block for the stacked results.

        Convenience for synchronous callers: all requests enter the
        queue in one :meth:`submit_many` step before the first result is
        awaited, so they batch with each other (and with any other
        thread's traffic).
        """
        window_starts = np.asarray(window_starts, dtype=int).ravel()
        if window_starts.size == 0:
            raise InvalidRequest("forecast() needs at least one window start")
        handles = self.submit_many(window_starts)
        return np.stack([h.result() for h in handles], axis=0)

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._cond:
                # A closed scheduler still serves a blocked call's rest:
                # it is accepted (in flight) but not queued yet.
                while not self._queue and not (self._closed and self._in_flight == 0):
                    self._cond.wait()
                if not self._queue:
                    return
                take = min(len(self._queue), self.max_batch)
                batch = [self._queue.popleft() for _ in range(take)]
                self._queue_depth.set(len(self._queue))
                # Space freed: wake submitters blocked on admission.
                self._cond.notify_all()
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
                self.latency.observe(now - req.enqueued_at)
                req.future.set_result(block)
                served += 1
        except BaseException as exc:  # noqa: BLE001 — propagate to callers
            if len(batch) > 1 and isinstance(exc, Exception):
                served += self._serve_singly(batch)
            else:
                for req in batch:
                    if not req.future.done():
                        req.future.set_exception(exc)
        finally:
            with self._cond:
                self._in_flight -= len(batch)
                self._counters["completed"].inc(served)
                self._counters["failed"].inc(len(batch) - served)
                self._counters["batches"].inc()
                self._dispatched += 1
                self._batched_requests += len(batch)
                if len(batch) > self.max_batch_observed:
                    self.max_batch_observed = len(batch)
                if served:
                    self._last_complete_at = time.monotonic()
                self._cond.notify_all()

    def _serve_singly(self, batch: list[_Request]) -> int:
        """Serve each unanswered request of a failed batch on its own, so
        a request fails only when it fails alone; returns how many were
        served.  Each retry is one more service call, so a served row is
        still the byte of a direct, logged ``predict``."""
        served = 0
        for req in batch:
            if req.future.done():
                continue
            try:
                block = self.service.forecast([req.start])[0]
            except Exception as exc:  # noqa: BLE001 — propagate to the caller
                req.future.set_exception(exc)
                continue
            self.latency.observe(time.monotonic() - req.enqueued_at)
            req.future.set_result(block)
            served += 1
        return served

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
        already accepted (a blocked call's not-yet-queued rest too), then
        joins the worker.  ``drain=False`` fails all accepted, unserved
        requests with ``RuntimeError`` and returns as soon as the worker
        exits (a batch already being predicted still completes).
        """
        with self._cond:
            if not self._closed:
                self._closed = True
                if not drain:
                    self._abandoned = True
                    self._fail_unserved(list(self._queue))
                    self._queue.clear()
                    self._queue_depth.set(0)
            self._cond.notify_all()
        if drain:
            self.drain(timeout)
        self._worker.join(timeout)

    def _fail_unserved(self, requests: list[_Request]) -> None:
        """Fail accepted requests that will never be served (caller holds
        ``self._cond``)."""
        self._in_flight -= len(requests)
        self._counters["failed"].inc(len(requests))
        for req in requests:
            req.future.set_exception(
                RuntimeError(f"{self.name} shut down before serving window {req.start}")
            )

    def __enter__(self) -> "MicroBatchScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    @property
    def throughput_rps(self) -> float | None:
        """Completed requests per second, first submit → last completion.

        The model's ``completed`` series outlives a blue/green swap, so
        the count is the completions it gained since this scheduler's
        first submit — the same window the elapsed time covers.
        """
        with self._cond:
            if self._first_submit_at is None or self._last_complete_at is None:
                return None
            elapsed = self._last_complete_at - self._first_submit_at
            if elapsed <= 0:
                return None
            completed = self._counters["completed"].value
            return (completed - self._completed_at_first_submit) / elapsed

    @property
    def stats(self) -> dict:
        with self._cond:
            snapshot = {
                field: int(child.value) for field, child in self._counters.items()
            }
            snapshot.update({
                "avg_batch_size": (
                    self._batched_requests / self._dispatched
                    if self._dispatched else 0.0
                ),
                "max_batch_observed": self.max_batch_observed,
                "queue_depth": len(self._queue),
                "peak_queue_depth": self.peak_queue_depth,
                # Condition's default lock is an RLock, so the property
                # can re-enter it.
                "throughput_rps": self.throughput_rps,
            })
        latency = self.latency.summary()
        snapshot["latency"] = {"count": latency["count"]} | {
            f"{key}_ms": None if latency[key] is None else 1e3 * latency[key]
            for key in ("p50", "p95", "p99", "mean", "max")
        }
        snapshot["service"] = self.service.stats
        return snapshot
