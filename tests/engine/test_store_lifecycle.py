"""Store lifecycle suite: quota GC, compaction, accounting, process wiring.

The PR 10 contract under test: a quota-bounded disk tier stays
bit-exact — a surviving hit returns the identical bytes, an evicted
entry is a plain miss that recomputes, and concurrent readers racing a
GC see hit-or-miss, never corruption.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro.engine import (
    ArtifactStore,
    StoreConfig,
    array_key,
    open_store,
    reset_store,
    store_metric_samples,
)


def _key(*parts) -> bytes:
    return array_key(*parts)


def _fill(store: ArtifactStore, count: int, *, namespace="mask_fill", shape=(64, 64),
          persist_each=True, tag="") -> None:
    """Write ``count`` distinct array entries, one segment per persist."""
    for i in range(count):
        store.put(namespace, _key(tag, i), np.full(shape, float(i)))
        if persist_each:
            store.persist()


class TestQuotaEviction:
    def test_explicit_gc_enforces_target(self, tmp_path):
        store = ArtifactStore(disk_dir=tmp_path)
        _fill(store, 4)
        total = store.disk_usage()
        summary = store.gc(target_bytes=total // 2)
        assert summary["evicted_segments"] >= 1
        assert store.disk_usage() <= total // 2
        assert summary["disk_bytes_after"] <= total // 2

    def test_persist_time_gc_keeps_tier_under_quota(self, tmp_path):
        probe = ArtifactStore(disk_dir=tmp_path)
        _fill(probe, 1)
        segment_bytes = probe.disk_usage()
        reset_store()
        quota = int(segment_bytes * 2.5)  # room for two segments, not four
        store = ArtifactStore(disk_dir=tmp_path, max_bytes=quota)
        _fill(store, 4, tag="quota")
        assert store.disk_usage() <= quota
        lifecycle = store.stats["totals"]["lifecycle"]
        assert lifecycle["evicted_segments"] >= 1
        assert lifecycle["quota_bytes"] == quota
        assert lifecycle["quota_headroom_bytes"] >= 0

    def test_lru_order_spares_recently_touched_segment(self, tmp_path):
        store = ArtifactStore(disk_dir=tmp_path)
        _fill(store, 3)
        time.sleep(0.01)
        store.clear_memory()
        assert store.get("mask_fill", _key("", 0)) is not None  # touch oldest
        total = store.disk_usage()
        store.gc(target_bytes=total // 2)
        store.clear_memory()
        # The touched (otherwise-oldest) segment survived; an untouched
        # older one did not.
        assert store.get("mask_fill", _key("", 0)) is not None
        assert store.get("mask_fill", _key("", 1)) is None

    def test_evicted_entry_is_miss_then_bitwise_identical_recompute(self, tmp_path):
        rng = np.random.default_rng(7)
        value = rng.standard_normal((32, 32))
        store = ArtifactStore(disk_dir=tmp_path)
        store.put("mask_fill", _key("v"), value)
        store.persist()
        store.gc(target_bytes=0)  # evict everything
        store.clear_memory()
        assert store.get("mask_fill", _key("v")) is None  # miss, not garbage
        recomputed = store.get_or_compute("mask_fill", _key("v"), lambda: value.copy())
        assert recomputed.tobytes() == value.tobytes()

    def test_surviving_hit_is_byte_identical_after_gc(self, tmp_path):
        rng = np.random.default_rng(11)
        keep = rng.standard_normal((32, 32))
        store = ArtifactStore(disk_dir=tmp_path)
        store.put("mask_fill", _key("keep"), keep)
        store.persist()
        time.sleep(0.01)
        _fill(store, 2, tag="churn")
        store.clear_memory()
        assert store.get("mask_fill", _key("keep")) is not None  # freshen
        store.gc(target_bytes=int(store.disk_usage() * 0.6))
        store.clear_memory()
        survivor = store.get("mask_fill", _key("keep"))
        assert survivor is not None and survivor.tobytes() == keep.tobytes()

    def test_read_only_store_refuses_gc(self, tmp_path):
        writer = ArtifactStore(disk_dir=tmp_path)
        _fill(writer, 1)
        bundle = ArtifactStore(disk_dir=tmp_path, read_only=True)
        with pytest.raises(RuntimeError, match="read-only"):
            bundle.gc()
        # persist() with a quota must not sneak a gc in either.
        bundle.put("mask_fill", _key("fresh"), np.ones(2))
        assert bundle.persist() == 0
        assert writer.disk_usage() > 0

    def test_gc_leaves_unindexed_foreign_segments_alone(self, tmp_path):
        ours = ArtifactStore(disk_dir=tmp_path)
        _fill(ours, 1, tag="ours")
        theirs = ArtifactStore(disk_dir=tmp_path)
        _fill(theirs, 1, tag="theirs", shape=(8, 8))
        # ``ours`` never refreshed: the foreign segment is not indexed
        # and must survive even a gc to zero.
        ours.gc(target_bytes=0)
        fresh = ArtifactStore(disk_dir=tmp_path)
        assert fresh.get("mask_fill", _key("theirs", 0)) is not None


class TestConcurrentReaders:
    def test_reader_during_gc_sees_hit_or_miss_never_corrupt(self, tmp_path, recwarn):
        values = {i: np.full((48, 48), float(i)) for i in range(6)}
        writer = ArtifactStore(disk_dir=tmp_path)
        for i, value in values.items():
            writer.put("mask_fill", _key("c", i), value)
            writer.persist()
        reader = ArtifactStore(disk_dir=tmp_path)
        failures: list[str] = []
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                reader.clear_memory()
                for i, expected in values.items():
                    got = reader.get("mask_fill", _key("c", i))
                    if got is not None and got.tobytes() != expected.tobytes():
                        failures.append(f"entry {i} corrupted")
                        return

        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            total = writer.disk_usage()
            writer.gc(target_bytes=total // 3)
            time.sleep(0.1)
        finally:
            stop.set()
            thread.join()
        assert failures == []
        # Vanished segments are silent misses — no corruption warnings.
        assert not [w for w in recwarn if "unreadable" in str(w.message)]
        assert reader.corrupt_segments == 0

    def test_refresh_prunes_foreign_gc_and_bytes_stay_consistent(self, tmp_path):
        writer = ArtifactStore(disk_dir=tmp_path)
        _fill(writer, 3)
        reader = ArtifactStore(disk_dir=tmp_path)
        before = reader.stats["totals"]
        assert before["disk_items"] == 3
        writer.gc(target_bytes=0)
        changed = reader.refresh_disk_index()
        assert changed < 0  # net shrink reported
        after = reader.stats["totals"]
        assert after["disk_items"] == 0
        assert after["disk_bytes"] == 0  # metadata left with the segments
        assert after["lifecycle"]["disk_file_bytes"] == 0


class TestCompaction:
    def test_duplicate_writer_segments_compact_without_value_drift(self, tmp_path):
        a = ArtifactStore(disk_dir=tmp_path)
        for i in range(4):
            a.put("mask_fill", _key("dup", i), np.full((16, 16), float(i)))
        a.persist()
        b = ArtifactStore(disk_dir=tmp_path)
        for i in range(4):  # same content keys → a's segment goes dead
            b.put("mask_fill", _key("dup", i), np.full((16, 16), float(i)))
        b.persist()
        b.refresh_disk_index()
        summary = b.gc()
        assert summary["compacted_segments"] == 1
        assert summary["reclaimed_bytes"] > 0
        b.clear_memory()
        for i in range(4):
            got = b.get("mask_fill", _key("dup", i))
            assert got is not None and got[0, 0] == float(i)

    def test_sparse_segment_rewritten_dense_preserves_bytes(self, tmp_path):
        rng = np.random.default_rng(3)
        values = {i: rng.standard_normal((16, 16)) for i in range(10)}
        first = ArtifactStore(disk_dir=tmp_path)
        for i, value in values.items():
            first.put("forecast_window", _key("s", i), value)
        first.persist()
        second = ArtifactStore(disk_dir=tmp_path)
        for i in range(8):  # supersede 8 of 10 → first segment 20% live
            second.put("forecast_window", _key("s", i), values[i])
        second.persist()
        summary = second.gc()
        assert summary["compacted_segments"] == 1
        assert summary["compacted_entries"] == 2  # the live stragglers moved
        second.clear_memory()
        for i, value in values.items():
            got = second.get("forecast_window", _key("s", i))
            assert got is not None and got.tobytes() == value.tobytes()
        # A fresh process over the compacted tier sees a consistent manifest.
        fresh = ArtifactStore(disk_dir=tmp_path)
        assert fresh.stats["totals"]["disk_items"] == 10

    def test_compaction_across_a_backward_clock_step_keeps_every_key(
        self, tmp_path, monkeypatch
    ):
        # Names assume a wall clock that never steps back; when it does,
        # the dense copy is named below its source.  The live entries
        # have no other holder, so they must still hit, bit for bit.
        rng = np.random.default_rng(11)
        values = {i: rng.standard_normal((16, 16)) for i in range(10)}
        first = ArtifactStore(disk_dir=tmp_path)
        for i, value in values.items():
            first.put("forecast_window", _key("clock", i), value)
        first.persist()
        second = ArtifactStore(disk_dir=tmp_path)
        for i in range(8):  # supersede 8 of 10: the first segment goes sparse
            second.put("forecast_window", _key("clock", i), values[i])
        second.persist()
        before = sorted(path.name for path in tmp_path.glob("seg-*.npz"))

        monkeypatch.setattr(time, "time_ns", lambda: 1)
        assert second.gc()["compacted_entries"] == 2
        monkeypatch.undo()

        after = sorted(path.name for path in tmp_path.glob("seg-*.npz"))
        (dense,) = set(after) - set(before)
        assert before[0] not in after  # the sparse source is gone
        assert dense < min(before)  # named below its source
        second.clear_memory()
        for store in (second, ArtifactStore(disk_dir=tmp_path)):
            for i, value in values.items():
                got = store.get("forecast_window", _key("clock", i))
                assert got is not None and got.tobytes() == value.tobytes()
        # A later collector finds nothing sparse and loses nothing.
        third = ArtifactStore(disk_dir=tmp_path)
        assert third.gc()["compacted_segments"] == 0
        assert third.stats["totals"]["disk_items"] == 10

    def test_two_collectors_never_delete_each_others_copy(self, tmp_path):
        # Both handles must agree which copy of k is live; otherwise each
        # gc() compacts away the copy the other one thinks is live.
        a = ArtifactStore(disk_dir=tmp_path)
        b = ArtifactStore(disk_dir=tmp_path)
        a.put("dtw_pair", _key("k"), 1.5)
        a.persist()
        a.refresh_disk_index()
        b.refresh_disk_index()
        b.put("dtw_pair", _key("k"), 1.5)
        b.persist()
        a.gc()
        b.gc()
        assert ArtifactStore(disk_dir=tmp_path).get("dtw_pair", _key("k")) == 1.5

    def test_dense_segment_inherits_the_newest_source_mtime(self, tmp_path):
        first = ArtifactStore(disk_dir=tmp_path)
        for i in range(4):
            first.put("mask_fill", _key("m", i), np.full((8, 8), float(i)))
        first.persist()
        (source,) = tmp_path.glob("seg-*.npz")
        stamp = source.stat().st_mtime_ns - 3600 * 10**9  # an hour-old LRU stamp
        os.utime(source, ns=(stamp, stamp))
        second = ArtifactStore(disk_dir=tmp_path)
        for i in range(3):  # supersede 3 of 4: the source goes sparse
            second.put("mask_fill", _key("m", i), np.full((8, 8), float(i)))
        second.persist()
        assert second.gc()["compacted_entries"] == 1
        dense = [path for path in tmp_path.glob("seg-*.npz") if path != source]
        assert not source.exists()
        # Compaction is maintenance, not use: no jump to the LRU front.
        assert stamp in {path.stat().st_mtime_ns for path in dense}

    def test_compaction_counts_in_stats_and_metrics(self, tmp_path):
        a = ArtifactStore(disk_dir=tmp_path)
        _fill(a, 2, persist_each=False, tag="m")
        a.persist()
        b = ArtifactStore(disk_dir=tmp_path)
        _fill(b, 2, persist_each=False, tag="m")
        b.persist()
        b.refresh_disk_index()
        b.gc()
        lifecycle = b.stats["totals"]["lifecycle"]
        assert lifecycle["compacted_segments"] == 1
        assert lifecycle["gc_runs"] == 1
        names = {name for name, _labels, _value in store_metric_samples(b)}
        assert "repro_store_compacted_segments_total" in names
        assert "repro_store_evicted_bytes_total" in names
        assert "repro_store_disk_file_bytes" in names


class TestByteAccountingRegressions:
    def test_corrupt_segment_scrub_drops_its_byte_accounting(self, tmp_path):
        store = ArtifactStore(disk_dir=tmp_path)
        store.put("mask_fill", _key("x"), np.ones((32, 32)))
        store.persist()
        assert store.stats["totals"]["disk_bytes"] > 0
        segment = next(tmp_path.glob("seg-*.npz"))
        segment.write_bytes(b"not a zip at all")
        store.clear_memory()
        with pytest.warns(UserWarning, match="unreadable"):
            assert store.get("mask_fill", _key("x")) is None
        totals = store.stats["totals"]
        assert totals["disk_items"] == 0
        assert totals["disk_bytes"] == 0  # meta scrubbed with the index

    def test_stale_handle_persist_and_refresh_index_only_existing_files(self, tmp_path):
        writer = ArtifactStore(disk_dir=tmp_path)
        _fill(writer, 2)
        victim = ArtifactStore(disk_dir=tmp_path)
        writer.gc(target_bytes=0)
        # ``victim`` still indexes the deleted segments; after its next
        # persist and refresh it must index exactly the files on disk.
        victim.put("mask_fill", _key("fresh"), np.ones(4))
        victim.persist()
        victim.refresh_disk_index()
        on_disk = sorted(path.name for path in tmp_path.glob("seg-*.npz"))
        assert sorted(victim._segments) == on_disk
        assert victim.stats["totals"]["disk_items"] == 1

    def test_disk_usage_counts_dead_duplicates(self, tmp_path):
        values = [np.full((64, 64), float(i)) for i in range(4)]
        a = ArtifactStore(disk_dir=tmp_path)
        b = ArtifactStore(disk_dir=tmp_path)
        for store in (a, b):
            for i, value in enumerate(values):
                store.put("mask_fill", _key("dup", i), value)
            store.persist()
        b.refresh_disk_index()
        on_disk = sum(path.stat().st_size for path in tmp_path.glob("seg-*.npz"))
        assert b.disk_usage() == on_disk
        assert b.stats["totals"]["lifecycle"]["disk_file_bytes"] == on_disk

    def test_quota_accepts_byte_size_strings(self, tmp_path):
        store = ArtifactStore(disk_dir=tmp_path, max_bytes="1K")
        assert store.max_bytes == 1024
        config = StoreConfig(disk_dir=tmp_path, max_bytes=2048)
        assert config.build().max_bytes == 2048


class TestProcessStoreMetrics:
    def test_open_store_registers_collector(self, tmp_path):
        from repro.obs.metrics import global_registry, render_prometheus

        try:
            store = open_store(StoreConfig(disk_dir=tmp_path, max_bytes=1 << 20))
            store.put("dtw_pair", _key("m"), 1.0)
            rendered = render_prometheus(global_registry())
            assert "repro_store_quota_bytes" in rendered
            assert "repro_store_gc_runs_total" in rendered
        finally:
            reset_store()
        assert "repro_store_quota_bytes" not in render_prometheus(global_registry())
