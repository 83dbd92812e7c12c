"""Multi-model serving runtime: named forecasters behind one front door.

The paper evaluates across several regions and datasets at once; a
production deployment of this system hosts one fitted forecaster per
(region, dataset) combination, not one.  :class:`ServingRuntime`
is that host: models register under string keys, each gets its own
:class:`~repro.serving.MicroBatchScheduler` (so one hot model's queue
cannot head-of-line-block another's), and requests route by key.

Lifecycle per model: ``register`` (builds the scheduler, model must be
fitted) → optional ``warm_up`` (pre-populates the result cache through
the real serving path) → traffic via ``submit_many``/``forecast`` →
``drain`` (barrier: all accepted requests served) → runtime-wide
``shutdown``.  The runtime is a context manager; exiting shuts every
scheduler down.

``stats()`` aggregates per-model serving telemetry — throughput,
p50/p95/p99 latency, queue depth, batch shape, cache-hit rate — plus a
``totals`` rollup, ready for the load benchmark's report and the timing
tables.  Its counts are read from the runtime's :attr:`~ServingRuntime.metrics`
registry — the children ``GET /metrics`` renders — which every hosted
scheduler counts into under ``model=<key>``.  A blue/green swap's
replacement counts into the same children, so each model's counters
run on across swaps and never decrease.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from ..interfaces import Forecaster
from ..engine.store import publish_store
from ..obs.metrics import MetricsRegistry
from ..obs.trace import TraceContext
from .errors import InvalidRequest, ModelNotFound, ServingError
from .scheduler import AsyncForecast, MicroBatchScheduler
from .service import ForecastService

__all__ = ["ServingRuntime"]

#: Swap records retained for telemetry (the counters never reset).
_SWAP_HISTORY_MAXLEN = 64


class ServingRuntime:
    """Host many fitted forecasters and route requests by model key.

    Constructor arguments become the default scheduler settings for
    every registered model; :meth:`register` accepts per-model
    overrides (a region with spiky traffic can run a deeper queue or a
    ``reject`` admission policy without affecting the others).
    """

    def __init__(
        self,
        *,
        max_batch: int = 64,
        max_queue: int = 1024,
        admission: str = "block",
        cache_size: int | None = None,
        log_batches: bool = False,
    ) -> None:
        self._defaults = {
            "max_batch": max_batch,
            "max_queue": max_queue,
            "admission": admission,
            "cache_size": cache_size,
            "log_batches": log_batches,
        }
        self._schedulers: dict[str, MicroBatchScheduler] = {}
        self._lock = threading.Lock()
        self._closed = False
        # Number of drain() calls currently in flight.  register() and
        # shutdown() during a drain would mutate the scheduler map the
        # drain is iterating over (a new model would silently escape the
        # barrier; a shutdown would fail requests the drain promised to
        # serve), so both raise while this is non-zero.
        self._draining = 0
        # Per-runtime metrics registry: every scheduler (and its
        # service) counts into it under model=<key>, the HTTP server
        # under worker=<label>, the streaming bridge under its key.
        # Rendered by GET /metrics and embedded as the `metrics`
        # section of stats().
        self.metrics = MetricsRegistry()
        # Blue/green swap telemetry: per-key swap counts and bounded
        # swap records.
        self._swaps = self.metrics.counter(
            "repro_swaps_total", "Blue/green swaps completed", ("model",)
        )
        self._swap_history: list[dict] = []
        # Extra /v1/stats sections: an attached ArtifactStore surfaces
        # cache telemetry, named providers (e.g. the streaming bridge's
        # refit-lag stats) contribute their own top-level sections.
        self._store = None
        self._stats_sources: dict[str, object] = {}

    # ------------------------------------------------------------------
    # Registration and lookup
    # ------------------------------------------------------------------
    def register(
        self,
        key: str,
        forecaster: Forecaster | ForecastService,
        *,
        replace: bool = False,
        **overrides,
    ) -> MicroBatchScheduler:
        """Host ``forecaster`` (fitted) under ``key``; returns its scheduler.

        With ``replace=True`` an existing registration is blue/green
        swapped: the new scheduler is built and atomically installed
        under the key (new requests route to it from that instant), then
        the old scheduler is drained — every request it already accepted
        is served by the old model — and shut down.  A request that
        races the swap and reaches the old scheduler after its intake
        closed is transparently resubmitted to the new one by
        :meth:`submit_many`, so no request is ever dropped across a swap.
        Both schedulers count into the key's metric children, so the
        model's counters run on across the swap.  ``replace=True`` with
        no existing registration is an ordinary register.
        """
        key = str(key)
        with self._lock:
            if self._closed:
                raise RuntimeError("runtime is shut down")
            if self._draining:
                raise RuntimeError(
                    f"cannot register {key!r} while a drain() is in flight; "
                    "wait for the drain barrier to release"
                )
            old = self._schedulers.get(key)
            if old is not None and not replace:
                raise ValueError(
                    f"model key {key!r} is already registered "
                    "(pass replace=True to blue/green swap it)"
                )
            settings = {**self._defaults, **overrides}
            if isinstance(forecaster, ForecastService) and "cache_size" not in overrides:
                # A pre-built service owns its cache; only an explicit
                # per-model override should reach (and fail) the
                # scheduler's incompatibility check.
                settings.pop("cache_size", None)
            scheduler = MicroBatchScheduler(
                forecaster, name=key, metrics=self.metrics, **settings
            )
            # The atomic swap: from here on submit() routes to the new
            # scheduler.  The old one still owes every request it
            # accepted; it is drained below, outside the lock, so the
            # swap never blocks routing.
            self._schedulers[key] = scheduler
        if old is not None:
            drain_started = time.monotonic()
            old.shutdown(drain=True)
            drain_seconds = time.monotonic() - drain_started
            swaps = self._swaps.labels(model=key)
            with self._lock:
                swaps.inc()
                self._swap_history.append({
                    "model": key,
                    "swap": int(swaps.value),
                    "at": time.time(),
                    "drain_seconds": drain_seconds,
                })
                del self._swap_history[:-_SWAP_HISTORY_MAXLEN]
        return scheduler

    def scheduler(self, key: str) -> MicroBatchScheduler:
        with self._lock:
            return self._scheduler_locked(key)

    def _scheduler_locked(self, key: str) -> MicroBatchScheduler:
        try:
            return self._schedulers[key]
        except KeyError:
            raise ModelNotFound(
                f"unknown model key {key!r}; registered: {sorted(self._schedulers)}"
            ) from None

    @property
    def models(self) -> list[str]:
        with self._lock:
            return sorted(self._schedulers)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._schedulers

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------
    def submit(self, key: str, start: int) -> AsyncForecast:
        """Route one window-start request (see :meth:`submit_many`)."""
        return self.submit_many(key, [start])[0]

    def submit_many(
        self, key: str, starts, trace: TraceContext | None = None
    ) -> list[AsyncForecast]:
        """Route window starts to the model hosted as ``key`` in one
        intake step (:meth:`MicroBatchScheduler.submit_many`).

        Swap-safe: a call that races ``register(..., replace=True)`` and
        reaches the outgoing scheduler after its intake closed is refused
        whole and retried against whichever scheduler the key routes to
        now, so a blue/green swap can never drop a request.  A genuine
        shutdown (the closed scheduler is still the registered one)
        re-raises.
        """
        starts = list(starts)
        while True:
            scheduler = self.scheduler(key)
            try:
                return scheduler.submit_many(starts, trace=trace)
            except RuntimeError as error:
                if isinstance(error, ServingError):
                    raise  # QueueFull etc. — admission policy, not a swap
                with self._lock:
                    current = self._schedulers.get(key)
                if current is None or current is scheduler:
                    raise

    def forecast(self, key: str, window_starts: np.ndarray) -> np.ndarray:
        """Synchronous batched forecasts from one hosted model."""
        window_starts = np.asarray(window_starts, dtype=int).ravel()
        if window_starts.size == 0:
            raise InvalidRequest("forecast() needs at least one window start")
        handles = self.submit_many(key, window_starts)
        return np.stack([h.result() for h in handles], axis=0)

    def warm_up(self, key: str, window_starts: np.ndarray) -> int:
        """Pre-populate a model's result cache through the serving path.

        Runs the windows through the model's own scheduler (same
        batching, same sorted batches), so warmed entries are bitwise
        the entries live traffic would have produced.  Returns how many
        of the distinct warmed windows are still cached afterwards (a
        cache smaller than the warm set evicts the earliest).
        """
        window_starts = np.asarray(window_starts, dtype=int).ravel()
        for handle in self.submit_many(key, window_starts):
            handle.result()
        results = self.scheduler(key).service._results
        return sum(int(s) in results for s in np.unique(window_starts))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def drain(self, key: str | None = None, timeout: float | None = None) -> bool:
        """Barrier until accepted requests are served (one model or all).

        While the barrier is in flight, :meth:`register` and
        :meth:`shutdown` raise ``RuntimeError`` — mutating the scheduler
        map mid-drain would let a new model escape the barrier or fail
        requests the drain promised to serve.
        """
        with self._lock:
            schedulers = (
                list(self._schedulers.values())
                if key is None
                else [self._scheduler_locked(key)]
            )
            self._draining += 1
        try:
            ok = True
            for scheduler in schedulers:
                ok = scheduler.drain(timeout) and ok
            return ok
        finally:
            with self._lock:
                self._draining -= 1

    def shutdown(self, drain: bool = True, timeout: float | None = None) -> None:
        """Shut down every hosted scheduler.  Idempotent."""
        with self._lock:
            if self._draining:
                raise RuntimeError(
                    "cannot shut down while a drain() is in flight; "
                    "wait for the drain barrier to release"
                )
            self._closed = True
        for scheduler in self._snapshot():
            scheduler.shutdown(drain=drain, timeout=timeout)

    def _snapshot(self) -> list[MicroBatchScheduler]:
        with self._lock:
            return list(self._schedulers.values())

    def __enter__(self) -> "ServingRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def attach_store(self, store) -> None:
        """Surface an :class:`~repro.engine.ArtifactStore`'s counters.

        The attached store's per-namespace stats (entries, bytes,
        hit/miss counters) appear under a ``store`` key in :meth:`stats`
        — and therefore on the wire at ``GET /v1/stats`` — and its
        ``repro_store_*`` samples on :attr:`metrics`, so serving and
        cache telemetry land in one place.
        """
        with self._lock:
            self._store = store
        publish_store(store, self.metrics)

    def add_stats_source(self, name: str, provider) -> None:
        """Register a callable contributing a named :meth:`stats` section.

        ``provider()`` is invoked on every full ``stats()`` read; the
        streaming bridge uses this to publish refit-lag and swap
        telemetry.  Reserved section names (``models``, ``totals``,
        ``store``, ``swaps``, ``metrics``) are rejected.
        """
        if name in ("models", "totals", "store", "swaps", "metrics"):
            raise ValueError(f"stats section name {name!r} is reserved")
        with self._lock:
            self._stats_sources[name] = provider

    def stats(self, key: str | None = None) -> dict:
        """Serving telemetry for one model, or all models plus totals.

        The full (keyless) form carries optional sections beyond
        ``models``/``totals``: ``swaps`` (blue/green swap counts and
        history) once a replace has happened,
        ``store`` when an artifact store is attached, plus one section
        per :meth:`add_stats_source` provider.
        """
        if key is not None:
            return self.scheduler(key).stats
        with self._lock:
            per_model = {k: s.stats for k, s in self._schedulers.items()}
        totals = {
            "models": len(per_model),
            "submitted": sum(s["submitted"] for s in per_model.values()),
            "completed": sum(s["completed"] for s in per_model.values()),
            "rejected": sum(s["rejected"] for s in per_model.values()),
            "failed": sum(s["failed"] for s in per_model.values()),
            "batches": sum(s["batches"] for s in per_model.values()),
            "queue_depth": sum(s["queue_depth"] for s in per_model.values()),
            "cache_hits": sum(s["service"]["cache_hits"] for s in per_model.values()),
            "windows_computed": sum(
                s["service"]["windows_computed"] for s in per_model.values()
            ),
        }
        requests = sum(s["service"]["requests"] for s in per_model.values())
        totals["cache_hit_pct"] = (
            100.0 * totals["cache_hits"] / requests if requests else 0.0
        )
        result = {"models": per_model, "totals": totals}
        with self._lock:
            store = self._store
            sources = dict(self._stats_sources)
            history = [dict(r) for r in self._swap_history]
        if history:
            by_model = {
                labels[0]: int(child.value) for labels, child in self._swaps.children()
            }
            result["swaps"] = {
                "count": sum(by_model.values()),
                "by_model": by_model,
                "history": history,
            }
        if store is not None:
            # A wedged store (dead disk) must degrade
            # to an error stanza, not take /v1/stats down with it.
            try:
                result["store"] = store.stats
            except Exception as error:  # noqa: BLE001 — stats must not 500
                result["store"] = {"error": f"{type(error).__name__}: {error}"}
        for name, provider in sources.items():
            try:
                result[name] = provider()
            except Exception as error:  # noqa: BLE001 — stats must not 500
                result[name] = {"error": f"{type(error).__name__}: {error}"}
        result["metrics"] = self.metrics.as_dict()
        return result
