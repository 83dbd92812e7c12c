"""Trainer → serving bridge: put refreshed models live without drops.

The last hop of the streaming subsystem.  A
:class:`~repro.streaming.RefitScheduler` produces a freshly fitted
forecaster; :class:`LiveSwapBridge` wraps it in a
:class:`~repro.serving.ForecastService` and blue/green swaps it into a
running :class:`~repro.serving.ServingRuntime` under a fixed model key:

1. the new scheduler is built and atomically installed under the key —
   new requests route to the refreshed model from that instant;
2. the outgoing scheduler is drained: every request it had already
   accepted is served (by the old model) before it shuts down;
3. a submit that races the swap and hits the old scheduler after its
   intake closed is transparently resubmitted by
   :meth:`~repro.serving.ServingRuntime.submit_many`.

No request is dropped or errored by a swap; requests in flight at swap
time are answered by whichever model's scheduler accepted them, which
is exactly blue/green semantics.

The bridge also closes the **refit-lag** loop: lag is defined as the
time from the *arrival of the trigger window's last row* (stamped by
the buffer, carried on the :class:`~repro.streaming.RefitRecord`) to
the *moment the refreshed model is live* (the atomic install — the old
scheduler's drain happens after new traffic is already being served by
the new model).  Per-deploy lag, fit/swap breakdowns and drain times
are published as the ``streaming`` section of
:meth:`ServingRuntime.stats` — and therefore on the wire at
``GET /v1/stats``.  Deploy and swap counts and the last and worst lag
are instruments on the runtime's registry labelled ``model=<key>``,
set by :meth:`LiveSwapBridge.deploy`; the section reads the counts
back from them.
"""

from __future__ import annotations

import time

from ..obs.trace import TraceContext, record_span
from ..serving.runtime import ServingRuntime
from ..serving.service import ForecastService
from .refit import RefitRecord

__all__ = ["LiveSwapBridge"]


class LiveSwapBridge:
    """Deploy refreshed forecasters into a runtime by blue/green swap.

    Parameters
    ----------
    runtime / key:
        The serving runtime and the model key the live model is hosted
        under.  The first :meth:`deploy` registers; later ones swap.
    store:
        Optional :class:`~repro.engine.ArtifactStore` backing each
        deployed service's result cache (content-addressed per model
        weights, so a swapped-in model never serves a predecessor's
        blocks) and attached to the runtime for ``/v1/stats`` cache
        telemetry.
    log_batches:
        Enable each service's batch-composition log (parity replay
        certification in ``bench_streaming``).
    """

    def __init__(
        self,
        runtime: ServingRuntime,
        key: str,
        *,
        store=None,
        log_batches: bool = False,
    ) -> None:
        self.runtime = runtime
        self.key = str(key)
        self.store = store
        self.log_batches = log_batches
        self.deploys: list[dict] = []
        self.service: ForecastService | None = None
        metrics = runtime.metrics
        self._deploys = metrics.counter(
            "repro_stream_deploys_total", "Refreshed models put live", ("model",)
        ).labels(model=self.key)
        self._swaps = metrics.counter(
            "repro_stream_swaps_total", "Deploys that blue/green swapped", ("model",)
        ).labels(model=self.key)
        self._lag = metrics.gauge(
            "repro_stream_refit_lag_seconds",
            "Data arrival to model live, last refit", ("model",),
        )
        self._lag_max = metrics.gauge(
            "repro_stream_refit_lag_max_seconds",
            "Data arrival to model live, worst refit", ("model",),
        )
        if store is not None:
            runtime.attach_store(store)
        runtime.add_stats_source("streaming", self.stats)

    def build_service(self, forecaster) -> ForecastService:
        """Wrap a fitted forecaster the way :meth:`deploy` serves it."""
        return ForecastService(forecaster, log_batches=self.log_batches, store=self.store)

    def deploy(
        self, forecaster, record: RefitRecord | None = None
    ) -> ForecastService:
        """Put ``forecaster`` live under the bridge's key; returns its service.

        The first deploy is an ordinary register; every later one is a
        blue/green swap (``replace=True``).  With a ``record`` from the
        refit scheduler, the deploy closes that refit's lag clock —
        data-arrival → model-live — and carries the fit/swap breakdown
        into the ``streaming`` stats section.
        """
        service = self.build_service(forecaster)
        swap = self.key in self.runtime
        swap_started = time.monotonic()
        self.runtime.register(self.key, service, replace=swap)
        live_at = time.monotonic()
        # Close the refit trace: the swap span parents under the refit
        # root whose ids the scheduler left on the record.
        if record is not None and "trace_span" in record.extra:
            record_span(
                "refit.swap",
                TraceContext(
                    record.extra["trace_id"], record.extra["trace_span"]
                ),
                swap_started,
                live_at,
                model=self.key,
                deploy=len(self.deploys),
            )
        self.service = service
        entry = {
            "deploy": len(self.deploys),
            "swap": swap,
            "live_at": time.time(),
            "swap_seconds": live_at - swap_started,
        }
        self._deploys.inc()
        if swap:
            self._swaps.inc()
        if record is not None:
            # Full lag: trigger-window data arrival -> model live.
            lag = live_at - record.data_ready_monotonic
            entry.update(
                refit_index=record.index,
                window=[record.window_start, record.window_end],
                fit_seconds=record.fit_seconds,
                warm_started=record.warm_started,
                refit_lag_seconds=lag,
                fit_lag_seconds=record.fit_lag_seconds,
            )
            self._lag.labels(model=self.key).set(lag)
            worst = self._lag_max.labels(model=self.key)
            worst.set(max(worst.value, lag))
        self.deploys.append(entry)
        return service

    @property
    def live(self) -> bool:
        return self.key in self.runtime

    def stats(self) -> dict:
        """The runtime's ``streaming`` stats section."""
        lags = [
            d["refit_lag_seconds"] for d in self.deploys
            if "refit_lag_seconds" in d
        ]
        section = {
            "model": self.key,
            "deploys": int(self._deploys.value),
            "swaps": int(self._swaps.value),
            "history": [dict(d) for d in self.deploys],
        }
        if lags:
            section["refit_lag"] = {
                "last_seconds": lags[-1],
                "mean_seconds": sum(lags) / len(lags),
                "max_seconds": max(lags),
            }
        return section
