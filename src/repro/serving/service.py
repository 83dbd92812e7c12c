"""Batched forecast serving with per-window result caching.

A fitted :class:`~repro.interfaces.Forecaster` exposes
``predict(window_starts)``; callers that ask one window at a time pay
the full per-call overhead (graph setup, batch padding) every time, and
repeated traffic for popular windows recomputes identical answers.  The
:class:`ForecastService` sits in front of the model and fixes both:

* **Coalescing** — one :meth:`ForecastService.forecast` call
  deduplicates its window starts, drops the ones already cached, and
  issues the rest to the model as large batched ``predict`` calls.
* **Caching** — every window's ``(horizon, N_u)`` block is stored in
  an artifact-store view keyed by its start index (a private bounded
  store unless a shared one is given), so repeated requests are served
  from memory.

Correctness contract: the service adds zero numerical drift.  A
cold-cache call issues the model's own ``predict`` over the deduped,
sorted window starts, so its outputs are bitwise identical to the
caller making that predict call directly, and cached repeats are
bitwise identical to the first computation.  Batching is only applied
to models whose per-window outputs are independent of batch
composition (``stateless_predict``); GE-GAN reseeds its noise
generator per ``predict`` call and is therefore served one window per
call, so its cached results always equal the per-window ground truth.
(For STSM, per-window vs batched ``predict`` agree only to the last
ulp — its conv matmul takes batch-size-dependent BLAS paths — which is
a property of the model's own ``predict``, not of the service.)
"""

from __future__ import annotations

import threading
import time
from collections import deque

import numpy as np

from ..data.missing import NonFiniteObservationsError
from ..data.windows import WindowStartError
from ..engine import ArtifactStore, default_store_scope
from ..interfaces import Forecaster
from ..obs.metrics import MetricsRegistry
from ..obs.trace import span
from .errors import InvalidRequest

__all__ = ["ForecastService"]

_MISSING = object()

#: The service's counters: ``stats`` key -> (metric name, help).
_COUNTERS = {
    "predict_calls": ("repro_predict_calls_total", "Model predict calls"),
    "windows_computed": ("repro_windows_computed_total", "Windows predicted"),
    "predict_seconds": ("repro_predict_seconds_total", "Seconds in model predict"),
    "cache_hits": ("repro_cache_hits_total", "Requests served from the cache"),
    "coalesced": ("repro_coalesced_total", "Requests deduped into another's miss"),
}

#: Bound on the batch-composition log: parity replay certification
#: (bench_serving_load) is only sound for runs issuing fewer predict
#: calls than this.
BATCH_LOG_MAXLEN = 4096


class ForecastService:
    """Coalesce window-start requests into batched, cached predictions.

    Thread-safe: an internal lock serialises :meth:`forecast` calls, so
    a :class:`~repro.serving.MicroBatchScheduler` worker and direct
    callers can safely share one service (direct calls then simply
    serialise behind an in-progress one).

    Parameters
    ----------
    forecaster:
        A *fitted* forecaster (``predict`` must be callable).
    cache_size:
        Capacity of the private per-window result store (used unless a
        shared ``store`` with a content scope is given).
    max_batch_size:
        Upper bound on the number of windows per ``predict`` call; large
        requests are chunked to keep peak memory flat.
    store:
        Optionally draw the result cache from a shared
        :class:`~repro.engine.ArtifactStore` (namespace
        ``forecast_window``): blocks computed by other services over
        the same model content — earlier processes, warmed checkpoint
        bundles — are then served without recomputation.  The store is
        thread-safe, so services on different threads may share it.
    store_scope:
        Content scope separating this model's windows from every other
        model's in the shared store.  Defaults to
        :func:`~repro.engine.default_store_scope` (a hash of weights,
        config, dataset and split); when that returns ``None`` the
        service falls back to a private store.
    log_batches:
        Record the window-start batch of every issued ``predict`` call
        in :attr:`batch_log` (a bounded deque keeping the most recent
        4096 batches, so long-running services cannot grow it without
        bound).  The serving load benchmark replays this log through the
        model directly to certify that every served byte is bitwise a
        direct-``predict`` byte; replay certification therefore needs
        the run to stay under the bound.
    """

    def __init__(
        self,
        forecaster: Forecaster,
        cache_size: int = 256,
        max_batch_size: int = 64,
        log_batches: bool = False,
        store=None,
        store_scope: bytes | None = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        fitted = getattr(forecaster, "_fitted", True)
        if not fitted:
            raise RuntimeError("ForecastService requires a fitted forecaster")
        self.forecaster = forecaster
        self.max_batch_size = max_batch_size
        # The forecaster's ``stateless_predict`` declares that a window's
        # output does not depend on which other windows share the batch
        # (True for every model here except GE-GAN, whose per-call noise
        # reseed couples outputs to batch position).  When False the
        # service still caches but issues one single-window ``predict``
        # per miss, so cached results always equal the per-window truth.
        self.stateless_predict = getattr(forecaster, "stateless_predict", True)
        if store is not None and store_scope is None:
            store_scope = default_store_scope(forecaster)
            if store_scope is None:
                store = None  # no content scope: sharing could collide
        if store is None:
            store = ArtifactStore(maxsize=cache_size)
        self._results = store.view("forecast_window", scope=store_scope or b"")
        #: Window-start composition of recent predict calls, when
        #: ``log_batches`` is on (parity replay for the load benchmark).
        self.batch_log: deque[np.ndarray] | None = None
        if log_batches:
            self.enable_batch_log()
        # Serialises forecast() calls: a scheduler worker and direct
        # callers can safely share one service.
        self._lock = threading.Lock()
        # Telemetry for benchmarks and capacity planning: a private
        # registry until a scheduler hosts the service.
        self.count_into(MetricsRegistry(), "service")

    def count_into(self, registry: MetricsRegistry, model: str) -> None:
        """Count from now on into ``registry``'s children labelled ``model``
        (a hosting scheduler's); earlier counts stay where they were."""
        self._counters = {
            field: registry.counter(name, help, ("model",)).labels(model=model)
            for field, (name, help) in _COUNTERS.items()
        }

    def forecast(self, window_starts: np.ndarray) -> np.ndarray:
        """Batched forecasts for many (possibly duplicated) starts.

        Looks every distinct start up once, sends the sorted misses to
        the model in ``predict`` calls of at most ``max_batch_size``
        windows (one window per call for a stateful model), caches each
        computed row, and assembles the ``(len(window_starts), horizon,
        N_u)`` result in request order from the looked-up and computed
        blocks — never from a second cache read, so a write that evicts
        another of this call's windows cannot force a recompute.
        """
        starts = np.asarray(window_starts, dtype=int).ravel().tolist()
        if not starts:
            raise InvalidRequest("forecast() needs at least one window start")
        with self._lock:
            blocks = self.lookup(starts)
            misses = sorted(s for s in dict.fromkeys(starts) if s not in blocks)
            hits = sum(s in blocks for s in starts)
            self.count_hits(hits)
            self._counters["coalesced"].inc(len(starts) - hits - len(misses))
            chunk = self.max_batch_size if self.stateless_predict else 1
            with span("service.predict", batch_size=len(starts)):
                for begin in range(0, len(misses), chunk):
                    batch = np.asarray(misses[begin : begin + chunk], dtype=int)
                    rows = self._predict_batch(batch)
                    for row, start in enumerate(batch.tolist()):
                        # Copy: caching a view would pin the whole batch
                        # block in memory for as long as any one row stays
                        # cached.
                        blocks[start] = rows[row].copy()
                        self._results.put(start, blocks[start])
            self._counters["windows_computed"].inc(len(misses))
        return np.stack([blocks[s] for s in starts], axis=0)

    def _predict_batch(self, batch: np.ndarray) -> np.ndarray:
        """Issue one timed, logged ``predict`` call over ``batch``."""
        began = time.perf_counter()
        try:
            block = self.forecaster.predict(batch)
        except (WindowStartError, NonFiniteObservationsError) as exc:
            # The model refused a start it cannot forecast: the request's
            # fault, not the server's.
            raise InvalidRequest(str(exc)) from exc
        self._counters["predict_seconds"].inc(time.perf_counter() - began)
        self._counters["predict_calls"].inc()
        if self.batch_log is not None:
            self.batch_log.append(batch.copy())
        return block

    def enable_batch_log(self) -> None:
        """Start recording predict-batch compositions (idempotent)."""
        if self.batch_log is None:
            self.batch_log = deque(maxlen=BATCH_LOG_MAXLEN)

    def lookup(self, starts) -> dict[int, np.ndarray]:
        """Cache-only lookup: ``{start: block}`` for the distinct cached starts.

        Takes no service lock (the store is itself thread-safe): the
        scheduler answers hits on the caller's thread with this, and must
        not wait behind an in-flight ``predict``.  Request counters don't
        move (a caller serving the hits reports them with
        :meth:`count_hits`), but the view's raw probe counters do, so a
        cold window looked up here and then queued counts two misses.
        """
        with span("service.cache_lookup", batch_size=len(starts)):
            blocks = {s: self._results.get(s, _MISSING) for s in dict.fromkeys(starts)}
        return {s: block for s, block in blocks.items() if block is not _MISSING}

    def count_hits(self, count: int) -> None:
        """Count ``count`` requests served from :meth:`lookup`'s blocks."""
        self._counters["cache_hits"].inc(count)

    @property
    def stats(self) -> dict:
        """Service counters plus the underlying result-cache stats.

        Every request is a cache hit, a coalesced duplicate or a
        computed window, so ``requests`` is their sum.  Deliberately
        free of the service lock: it is held across model ``predict``
        calls, and telemetry reads must not block behind a slow model.
        A snapshot taken mid-forecast may be a few requests stale, which
        monitoring tolerates.
        """
        counts = {field: int(child.value) for field, child in self._counters.items()}
        counts["predict_seconds"] = self._counters["predict_seconds"].value
        requests = counts["cache_hits"] + counts["coalesced"] + counts["windows_computed"]
        return {
            "requests": requests,
            **counts,
            "cache_hit_pct": 100.0 * counts["cache_hits"] / requests if requests else 0.0,
            "cache": self._results.stats,
        }
