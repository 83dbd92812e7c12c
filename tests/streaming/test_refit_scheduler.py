"""RefitScheduler: trigger semantics, warm-start chain, bitwise parity.

The parity tests are this PR's acceptance gate: after two rolling
refits — warm-started from checkpoint *directories* with the shared
artifact store on — every refit's weights and served outputs must be
bitwise identical to a from-scratch fit of the same window that loads
the same warm weights as an in-memory state dict with all cross-fit
caches disabled.  Warm starts and store reuse are accelerations, not
approximations.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.engine import ArtifactStore
from repro.serving import ForecastService
from repro.streaming import (
    FeedReplayer,
    RefitPolicy,
    RefitScheduler,
    StreamBuffer,
    fit_reference,
)

POLICY = RefitPolicy(window_steps=64, refit_every=32, refit_epochs=1, max_refits=2)


def _filled_buffer(feed_dataset, stop_step=96):
    buffer = StreamBuffer(feed_dataset)
    FeedReplayer(feed_dataset, buffer, speedup=math.inf, stop_step=stop_step).run()
    return buffer


def _run_all(scheduler):
    models = []
    while scheduler.run_once(timeout=0) is not None:
        models.append(scheduler.model)
    return models


class TestPolicy:
    def test_trigger_and_window_math(self):
        assert POLICY.trigger_watermark(0) == 64
        assert POLICY.trigger_watermark(1) == 96
        assert POLICY.window(0) == (0, 64)
        assert POLICY.window(1) == (32, 96)

    def test_validation(self):
        with pytest.raises(ValueError, match="window_steps"):
            RefitPolicy(window_steps=0, refit_every=1, refit_epochs=1)
        with pytest.raises(ValueError, match="refit_every"):
            RefitPolicy(window_steps=8, refit_every=0, refit_epochs=1)
        with pytest.raises(ValueError, match="refit_epochs"):
            RefitPolicy(window_steps=8, refit_every=1, refit_epochs=0)

    def test_window_must_fit_a_training_window(
        self, feed_dataset, feed_split, feed_spec, feed_config, tmp_path
    ):
        tight = RefitPolicy(window_steps=16, refit_every=8, refit_epochs=1)
        with pytest.raises(ValueError, match="window_steps"):
            RefitScheduler(
                StreamBuffer(feed_dataset), feed_config, feed_split,
                feed_spec, tight, tmp_path,
            )


class TestTriggers:
    def test_schedule_runs_to_max_refits(
        self, feed_dataset, feed_split, feed_spec, feed_config, tmp_path
    ):
        buffer = _filled_buffer(feed_dataset)
        scheduler = RefitScheduler(
            buffer, feed_config, feed_split, feed_spec, POLICY, tmp_path
        )
        assert scheduler.next_trigger() == 64
        assert scheduler.pending()
        models = _run_all(scheduler)
        assert len(models) == 2
        assert scheduler.next_trigger() is None
        assert not scheduler.pending()
        assert scheduler.run_once(timeout=0) is None
        assert [(r.window_start, r.window_end) for r in scheduler.records] == [
            (0, 64), (32, 96),
        ]

    def test_run_once_times_out_without_data(
        self, feed_dataset, feed_split, feed_spec, feed_config, tmp_path
    ):
        scheduler = RefitScheduler(
            StreamBuffer(feed_dataset), feed_config, feed_split,
            feed_spec, POLICY, tmp_path,
        )
        assert scheduler.run_once(timeout=0.01) is None
        assert scheduler.completed == 0

    def test_refits_chain_warm_starts_and_checkpoints(
        self, feed_dataset, feed_split, feed_spec, feed_config, tmp_path
    ):
        buffer = _filled_buffer(feed_dataset)
        scheduler = RefitScheduler(
            buffer, feed_config, feed_split, feed_spec, POLICY, tmp_path
        )
        _run_all(scheduler)
        first, second = scheduler.records
        # No external checkpoint: refit 0 is cold, refit 1 warm-starts
        # from refit 0's best-epoch directory.
        assert not first.warm_started
        assert second.warm_started
        assert (tmp_path / "window-0" / "best.npz").exists()
        assert (tmp_path / "window-1" / "best.npz").exists()
        assert scheduler.warm_source(1) == tmp_path / "window-0"
        stats = scheduler.stats
        assert stats["completed"] == 2
        assert [r["window"] for r in stats["refits"]] == [[0, 64], [32, 96]]
        assert all(r["fit_lag_seconds"] >= 0 for r in stats["refits"])


class TestStoreMaintenance:
    def test_idle_refit_with_quota_collects_once(
        self, feed_dataset, feed_split, feed_spec, feed_config, tmp_path
    ):
        # The fit keeps its caches private, so the refit leaves nothing
        # dirty: its persist() is the quota's only gc pass.
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        store = ArtifactStore(disk_dir=cache_dir, max_bytes="1M")
        scheduler = RefitScheduler(
            _filled_buffer(feed_dataset), feed_config.replace(cache_store=False),
            feed_split, feed_spec, POLICY, tmp_path / "checkpoints", store=store,
        )
        assert scheduler.run_once(timeout=0) is not None
        assert scheduler.records[0].store_entries_persisted == 0
        assert store.stats["totals"]["lifecycle"]["gc_runs"] == 1


class TestBitwiseParity:
    def test_two_rolling_refits_match_from_scratch_bitwise(
        self, feed_dataset, feed_split, feed_spec, feed_config, tmp_path
    ):
        buffer = _filled_buffer(feed_dataset)
        scheduler = RefitScheduler(
            buffer, feed_config, feed_split, feed_spec, POLICY,
            tmp_path, store=ArtifactStore(),
        )
        models = _run_all(scheduler)
        assert len(models) == 2 and scheduler.records[1].warm_started
        starts = np.arange(0, POLICY.window_steps - feed_spec.total + 1, 8)
        for index, model in enumerate(models):
            reference = fit_reference(scheduler, index)
            state = model.network.state_dict()
            ref_state = reference.network.state_dict()
            assert set(state) == set(ref_state)
            for name in state:
                assert state[name].tobytes() == ref_state[name].tobytes(), (
                    f"refit {index}: parameter {name} drifted"
                )
            assert model.predict(starts).tobytes() == reference.predict(starts).tobytes()

    def test_served_bytes_replay_through_the_reference(
        self, feed_dataset, feed_split, feed_spec, feed_config, tmp_path
    ):
        """Every byte served for the live model is a direct-predict byte
        of the from-scratch reference (batch-log replay, the
        composition-exact certification from the serving benchmarks)."""
        buffer = _filled_buffer(feed_dataset)
        store = ArtifactStore()
        scheduler = RefitScheduler(
            buffer, feed_config, feed_split, feed_spec, POLICY,
            tmp_path, store=store,
        )
        models = _run_all(scheduler)
        service = ForecastService(models[-1], log_batches=True)
        starts = np.arange(0, POLICY.window_steps - feed_spec.total + 1, 4)
        served = service.forecast(starts)
        reference = fit_reference(scheduler, len(models) - 1)
        replayed: dict[int, bytes] = {}
        for batch in service.batch_log:
            blocks = reference.predict(np.asarray(batch))
            for start, block in zip(batch, blocks):
                replayed[int(start)] = block.tobytes()
        for start, block in zip(starts, served):
            assert block.tobytes() == replayed[int(start)], (
                f"served window {start} is not a reference predict block"
            )
