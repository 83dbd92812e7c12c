"""Incremental refits over the stream's rolling window.

The middle layer of the streaming subsystem: a
:class:`RefitScheduler` watches a :class:`~repro.streaming.StreamBuffer`
watermark and, every ``refit_every`` newly ingested steps, fits a fresh
:class:`~repro.core.STSMForecaster` on the latest ``window_steps``-step
window.  Two mechanisms keep a refit much cheaper than the original fit
without changing a single served byte:

* **Warm starts** — refit ``k`` seeds its optimisation from refit
  ``k-1``'s best-epoch checkpoint (refit 0 from an optional external
  checkpoint, e.g. the originally served model's) via
  :meth:`~repro.engine.Trainer.restore`, and runs only
  ``refit_epochs`` epochs instead of a full training budget.
* **Store reuse** — with an :class:`~repro.engine.ArtifactStore`
  installed, DTW pairs and masked adjacencies are content-addressed
  across refits; :meth:`~repro.engine.ArtifactStore.refresh_disk_index`
  runs before every refit so segments persisted by other processes
  (sweep workers, a previous serve) are visible too.

Trigger semantics: refit ``k`` (``k = 0, 1, ...``) becomes due the
moment the watermark reaches ``window_steps + k * refit_every``; its
training window is the trailing ``window_steps`` steps
``[k * refit_every, window_steps + k * refit_every)``.  Triggers are
derived purely from the watermark, never from wall time, so the refit
sequence for a given feed is deterministic at any replay speedup.

**Parity contract** (proved by :func:`fit_reference` and gated in tests
and ``bench_streaming``): an incremental refit — warm-started from a
checkpoint *directory* with the shared store on — produces weights and
served outputs bitwise identical to a from-scratch fit of the same
window that loads the same weights as an in-memory state dict with
every cross-fit cache disabled.  Warm starting and store reuse are
pure accelerations, not approximations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core.config import STSMConfig
from ..core.model import STSMForecaster
from ..data.splits import SpaceSplit
from ..data.windows import WindowSpec
from ..engine import ArtifactStore, EarlyStopping, open_store
from ..obs.trace import (
    TraceContext,
    get_recorder,
    mint_span_id,
    mint_trace_id,
    record_span,
)
from .buffer import StreamBuffer

__all__ = ["RefitPolicy", "RefitRecord", "RefitScheduler", "fit_reference"]


@dataclass(frozen=True)
class RefitPolicy:
    """When to refit and how hard to train.

    ``window_steps`` is the rolling training window; ``refit_every`` the
    number of freshly ingested steps between triggers; ``refit_epochs``
    the (warm-started) training budget per refit; ``max_refits``
    optionally bounds the schedule.
    """

    window_steps: int
    refit_every: int
    refit_epochs: int
    max_refits: int | None = None

    def __post_init__(self) -> None:
        if self.window_steps < 1:
            raise ValueError(f"window_steps must be >= 1, got {self.window_steps}")
        if self.refit_every < 1:
            raise ValueError(f"refit_every must be >= 1, got {self.refit_every}")
        if self.refit_epochs < 1:
            raise ValueError(f"refit_epochs must be >= 1, got {self.refit_epochs}")
        if self.max_refits is not None and self.max_refits < 0:
            raise ValueError(f"max_refits must be >= 0, got {self.max_refits}")

    def trigger_watermark(self, index: int) -> int:
        """Watermark at which refit ``index`` becomes due."""
        return self.window_steps + index * self.refit_every

    def window(self, index: int) -> tuple[int, int]:
        """Absolute step range ``[start, stop)`` refit ``index`` trains on."""
        end = self.trigger_watermark(index)
        return end - self.window_steps, end


@dataclass
class RefitRecord:
    """Accounting for one completed refit (telemetry + parity replay)."""

    index: int
    window_start: int
    window_end: int
    fit_seconds: float
    warm_started: bool
    epochs: int
    best_val_rmse: float
    checkpoint_dir: str
    #: Monotonic stamp of the trigger window's last-row arrival — the
    #: start of the refit-lag clock (the bridge stamps the end when the
    #: refreshed model goes live).
    data_ready_monotonic: float
    fitted_monotonic: float
    store_entries_refreshed: int = 0
    store_entries_persisted: int = 0
    store_segments_evicted: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def fit_lag_seconds(self) -> float:
        """Data-arrival → fit-complete portion of the refit lag."""
        return self.fitted_monotonic - self.data_ready_monotonic

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "window": [self.window_start, self.window_end],
            "fit_seconds": self.fit_seconds,
            "warm_started": self.warm_started,
            "epochs": self.epochs,
            "best_val_rmse": self.best_val_rmse,
            "fit_lag_seconds": self.fit_lag_seconds,
            "store_entries_refreshed": self.store_entries_refreshed,
            "store_entries_persisted": self.store_entries_persisted,
            "store_segments_evicted": self.store_segments_evicted,
            **self.extra,
        }


class RefitScheduler:
    """Watermark-triggered rolling-window refits over a stream buffer.

    Parameters
    ----------
    buffer:
        The ingestion buffer; its retention (``max_steps``) must cover
        at least ``policy.window_steps`` or due refits will raise.
    config:
        Base model configuration.  Each refit runs
        ``config.replace(epochs=policy.refit_epochs)``; everything else
        (seed, architecture, masking) is shared with the original fit.
    split / spec:
        The serving-time space split and window spec, reused verbatim —
        a refit retrains the same estimator on fresher data.
    checkpoint_root:
        Directory receiving one ``window-<k>`` best-epoch checkpoint
        per refit; refit ``k+1`` warm-starts from refit ``k``'s.
    warm_start_dir:
        Optional external checkpoint seeding refit 0 (typically the
        originally served model's training checkpoint).  ``None`` makes
        refit 0 a cold fit.
    store:
        Optional :class:`~repro.engine.ArtifactStore` installed as the
        process store for the refits (DTW pairs, masked adjacencies and
        served windows become content-addressed across refits).  The
        caller owns teardown (:func:`~repro.engine.reset_store`).
    """

    def __init__(
        self,
        buffer: StreamBuffer,
        config: STSMConfig,
        split: SpaceSplit,
        spec: WindowSpec,
        policy: RefitPolicy,
        checkpoint_root: str | Path,
        *,
        warm_start_dir: str | Path | None = None,
        store: ArtifactStore | None = None,
    ) -> None:
        if spec.total >= policy.window_steps:
            raise ValueError(
                f"window_steps={policy.window_steps} cannot fit a "
                f"{spec.total}-step training window"
            )
        self.buffer = buffer
        self.config = config
        self.split = split
        self.spec = spec
        self.policy = policy
        self.checkpoint_root = Path(checkpoint_root)
        self.initial_warm_start_dir = (
            Path(warm_start_dir) if warm_start_dir is not None else None
        )
        self.store = store
        if store is not None:
            open_store(store=store)
        self.records: list[RefitRecord] = []
        self.model: STSMForecaster | None = None

    # ------------------------------------------------------------------
    # Trigger accounting
    # ------------------------------------------------------------------
    @property
    def completed(self) -> int:
        return len(self.records)

    def next_trigger(self) -> int | None:
        """Watermark the next refit needs, or ``None`` if the schedule ended."""
        index = self.completed
        if self.policy.max_refits is not None and index >= self.policy.max_refits:
            return None
        return self.policy.trigger_watermark(index)

    def pending(self) -> bool:
        """Whether the buffer already holds the next refit's trigger window."""
        target = self.next_trigger()
        return target is not None and self.buffer.watermark >= target

    def checkpoint_dir(self, index: int) -> Path:
        return self.checkpoint_root / f"window-{index}"

    def warm_source(self, index: int) -> Path | None:
        """Checkpoint directory refit ``index`` warm-starts from."""
        if index == 0:
            return self.initial_warm_start_dir
        return self.checkpoint_dir(index - 1)

    # ------------------------------------------------------------------
    # Refitting
    # ------------------------------------------------------------------
    def run_once(self, timeout: float | None = None) -> RefitRecord | None:
        """Wait for the next trigger, refit, and return its record.

        ``None`` when the schedule is exhausted or the trigger watermark
        did not arrive within ``timeout``.
        """
        target = self.next_trigger()
        if target is None:
            return None
        if not self.buffer.wait_for_watermark(target, timeout):
            return None
        return self._refit(self.completed)

    def _refit(self, index: int) -> RefitRecord:
        policy = self.policy
        start, end = policy.window(index)
        view = self.buffer.dataset_view(start, end, name_suffix=f"refit-{index}")
        data_ready = float(self.buffer.arrival_times(end - 1, end)[0])
        # Each refit gets its own trace (trigger → refresh → fit, with
        # the bridge adding a swap span when it deploys the model).  The
        # root span id is pre-minted so children parent under it while
        # the refit is still running.
        recorder = get_recorder()
        root = (
            TraceContext(mint_trace_id(), mint_span_id())
            if recorder.enabled
            else None
        )
        refit_began = time.monotonic()
        refreshed = 0
        if self.store is not None:
            # Pick up segments persisted by concurrent writers (sweep
            # workers, an earlier serve) before the fit probes the store.
            refresh_began = time.monotonic()
            refreshed = self.store.refresh_disk_index()
            if root is not None:
                record_span(
                    "refit.refresh_index", root, refresh_began,
                    time.monotonic(), entries=refreshed,
                )
        model = STSMForecaster(
            self.config.replace(epochs=policy.refit_epochs),
            name=f"{getattr(self.config, 'name', 'STSM')}-refit{index}",
        )
        warm_dir = self.warm_source(index)
        fit_began = time.monotonic()
        report = model.fit(
            view,
            self.split,
            self.spec,
            np.arange(view.num_steps),
            warm_start_dir=str(warm_dir) if warm_dir is not None else None,
            checkpoint_dir=str(self.checkpoint_dir(index)),
        )
        if root is not None:
            record_span(
                "refit.fit", root, fit_began, time.monotonic(),
                index=index, epochs=report.epochs,
            )
        # Stamp fit completion before store maintenance: the refit-lag
        # clock measures data → model-ready, not disk housekeeping.
        fitted_stamp = time.monotonic()
        persisted = evicted = 0
        if (
            self.store is not None
            and self.store.disk_dir is not None
            and not self.store.read_only
        ):
            # A long-running deployment must not grow the tier without
            # bound: flush this refit's artifacts and let the quota
            # (when configured) collect cold segments.  persist() runs
            # the gc pass itself, also when nothing new was computed.
            gc_began = time.monotonic()
            lifecycle = self.store.stats["totals"]["lifecycle"]
            before_evicted = lifecycle["evicted_segments"]
            persisted = self.store.persist()
            lifecycle = self.store.stats["totals"]["lifecycle"]
            evicted = lifecycle["evicted_segments"] - before_evicted
            if root is not None:
                record_span(
                    "refit.gc", root, gc_began, time.monotonic(),
                    persisted=persisted, evicted_segments=evicted,
                )
        if root is not None:
            recorder.record({
                "trace": root.trace_id,
                "span": root.span_id,
                "parent": None,
                "name": "refit",
                "start": refit_began,
                "dur": time.monotonic() - refit_began,
                "wall": time.time(),
                "attrs": {"index": index, "window": [start, end]},
            })
        record = RefitRecord(
            index=index,
            window_start=start,
            window_end=end,
            fit_seconds=report.train_seconds,
            warm_started=bool(report.extra.get("warm_started", False)),
            epochs=report.epochs,
            best_val_rmse=float(report.extra.get("best_val_rmse", float("nan"))),
            checkpoint_dir=str(self.checkpoint_dir(index)),
            data_ready_monotonic=data_ready,
            fitted_monotonic=fitted_stamp,
            store_entries_refreshed=refreshed,
            store_entries_persisted=persisted,
            store_segments_evicted=evicted,
        )
        if root is not None:
            # The bridge parents its refit.swap span here when the
            # refreshed model is deployed.
            record.extra["trace_id"] = root.trace_id
            record.extra["trace_span"] = root.span_id
        self.records.append(record)
        self.model = model
        return record

    @property
    def stats(self) -> dict:
        """Refit accounting for telemetry surfaces."""
        return {
            "completed": self.completed,
            "next_trigger": self.next_trigger(),
            "policy": {
                "window_steps": self.policy.window_steps,
                "refit_every": self.policy.refit_every,
                "refit_epochs": self.policy.refit_epochs,
                "max_refits": self.policy.max_refits,
            },
            "refits": [r.as_dict() for r in self.records],
        }


def fit_reference(
    scheduler: RefitScheduler, index: int
) -> STSMForecaster:
    """From-scratch reference fit proving refit ``index`` drift-free.

    Rebuilds refit ``index`` through a maximally different code path:
    a fresh forecaster, ``cache_store=False`` (private cold caches — no
    shared DTW pairs, no masked-adjacency reuse, no served-window
    store), and the warm-start weights loaded as an in-memory state
    dict via :meth:`~repro.engine.EarlyStopping.load_checkpoint` rather
    than through :meth:`~repro.engine.Trainer.restore`.  Because the
    incremental path's store hits are bit-exact and both load paths
    overwrite every parameter identically, the reference's weights and
    ``predict`` outputs must equal the incremental refit's *bitwise* —
    tests and ``bench_streaming`` assert exactly that.
    """
    if index >= scheduler.completed:
        raise ValueError(
            f"refit {index} has not run (completed: {scheduler.completed})"
        )
    record = scheduler.records[index]
    view = scheduler.buffer.dataset_view(
        record.window_start, record.window_end, name_suffix=f"refit-{index}"
    )
    warm_state = None
    if record.warm_started:
        # Mirror the incremental refit's actual warm source — if its
        # restore degraded to a cold start, the reference is cold too.
        state, _metadata = EarlyStopping.load_checkpoint(scheduler.warm_source(index))
        warm_state = state
    reference = STSMForecaster(
        scheduler.config.replace(
            epochs=scheduler.policy.refit_epochs, cache_store=False
        ),
        name=f"{getattr(scheduler.config, 'name', 'STSM')}-reference{index}",
    )
    reference.fit(
        view,
        scheduler.split,
        scheduler.spec,
        np.arange(view.num_steps),
        warm_start_state=warm_state,
    )
    return reference
