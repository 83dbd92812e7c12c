"""ArtifactStore unit suite: tiers, disk round-trips, corruption, views."""

from __future__ import annotations

import argparse
import threading

import numpy as np
import pytest

from repro.engine import (
    CACHE_DIR_ENV,
    CACHE_MAX_BYTES_ENV,
    CACHE_MEMORY_ITEMS_ENV,
    ArtifactStore,
    StoreConfig,
    active_store,
    add_cache_arguments,
    array_key,
    open_store,
    parse_byte_size,
    reset_store,
    store_config_from_args,
)


def _key(*parts) -> bytes:
    return array_key(*parts)


class TestMemoryTier:
    def test_get_put_roundtrip(self):
        store = ArtifactStore()
        store.put("dtw_pair", _key(1), 2.5)
        assert store.get("dtw_pair", _key(1)) == 2.5
        assert store.get("dtw_pair", _key(2)) is None

    def test_namespace_isolation(self):
        store = ArtifactStore()
        key = _key("shared")
        store.put("dtw_pair", key, 1.0)
        store.put("mask_fill", key, np.ones(3))
        assert store.get("dtw_pair", key) == 1.0
        assert np.array_equal(store.get("mask_fill", key), np.ones(3))
        assert store.get("forecast_window", key) is None

    def test_eviction_under_maxsize(self):
        store = ArtifactStore(maxsize=2)
        keys = [_key(i) for i in range(3)]
        for i, key in enumerate(keys):
            store.put("dtw_pair", key, float(i))
        assert store.get("dtw_pair", keys[0]) is None  # evicted
        assert store.get("dtw_pair", keys[2]) == 2.0
        totals = store.stats["totals"]
        assert totals["memory_items"] == 2
        with pytest.raises(ValueError, match="maxsize"):
            ArtifactStore(maxsize=0)  # rejected at construction, not first put

    def test_per_namespace_maxsize(self):
        store = ArtifactStore(maxsize={"mask_fill": 1})
        store.put("mask_fill", _key(1), np.ones(1))
        store.put("mask_fill", _key(2), np.ones(1))
        assert store.get("mask_fill", _key(1)) is None
        assert store.get("mask_fill", _key(2)) is not None

    def test_rejects_unpersistable_values(self):
        store = ArtifactStore()
        with pytest.raises(TypeError):
            store.put("dtw_pair", _key(1), "a string")
        with pytest.raises(TypeError):
            store.put("dtw_pair", _key(1), 7)  # int is not float
        with pytest.raises(TypeError):
            store.put("dtw_pair", "not-bytes", 1.0)

    def test_get_or_compute_computes_once_per_content(self):
        store = ArtifactStore()
        calls = []
        value = store.get_or_compute("dtw_pair", _key("x"), lambda: calls.append(1) or 3.0)
        again = store.get_or_compute("dtw_pair", _key("x"), lambda: calls.append(1) or 4.0)
        assert value == again == 3.0
        assert len(calls) == 1

    def test_concurrent_get_or_put(self):
        store = ArtifactStore()
        results = []
        barrier = threading.Barrier(8)

        def worker(i):
            barrier.wait()
            for n in range(50):
                value = store.get_or_compute(
                    "dtw_pair", _key(n % 10), lambda n=n: float(n % 10)
                )
                results.append((n % 10, value))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Every reader saw the content-correct value for its key.
        assert all(value == float(n) for n, value in results)
        assert len(results) == 8 * 50


class TestDiskTier:
    def test_disk_roundtrip_bitwise(self, tmp_path):
        store = ArtifactStore(disk_dir=tmp_path)
        arr = np.random.default_rng(0).normal(size=(5, 3))
        arr[0, 0] = np.nan  # NaN payload bits must survive
        store.put("mask_fill", _key("m"), arr)
        store.put("dtw_pair", _key("d"), 0.1 + 0.2)
        assert store.persist() == 2
        assert store.persist() == 0  # dirty set cleared

        fresh = ArtifactStore(disk_dir=tmp_path)
        restored = fresh.get("mask_fill", _key("m"))
        assert restored.tobytes() == arr.tobytes()
        assert restored.dtype == arr.dtype
        assert fresh.get("dtw_pair", _key("d")) == 0.1 + 0.2
        assert fresh.stats["totals"]["disk_hits"] == 2

    def test_disk_promotes_into_memory(self, tmp_path):
        store = ArtifactStore(disk_dir=tmp_path)
        store.put("dtw_pair", _key(1), 5.0)
        store.persist()
        fresh = ArtifactStore(disk_dir=tmp_path)
        fresh.get("dtw_pair", _key(1))
        fresh.get("dtw_pair", _key(1))
        totals = fresh.stats["totals"]
        assert totals["disk_hits"] == 1 and totals["hits"] == 1

    def test_clear_memory_keeps_disk(self, tmp_path):
        store = ArtifactStore(disk_dir=tmp_path)
        store.put("dtw_pair", _key(1), 5.0)
        store.persist()
        store.clear_memory()
        assert store.get("dtw_pair", _key(1)) == 5.0
        assert store.stats["totals"]["disk_hits"] == 1

    def test_corrupted_segment_recovers_as_miss(self, tmp_path):
        store = ArtifactStore(disk_dir=tmp_path)
        store.put("dtw_pair", _key(1), 5.0)
        store.put("mask_fill", _key(2), np.ones(2))
        store.persist()
        segment = next(tmp_path.glob("seg-*dtw_pair*.npz"))
        segment.write_bytes(b"\x00garbage\x00")

        # Corruption is found when the segment is indexed, at construction.
        with pytest.warns(UserWarning, match="unreadable cache segment"):
            fresh = ArtifactStore(disk_dir=tmp_path)
            assert fresh.get("dtw_pair", _key(1)) is None
        # Sibling namespace's segment is untouched.
        assert np.array_equal(fresh.get("mask_fill", _key(2)), np.ones(2))
        assert fresh.corrupt_segments == 1

    def test_concurrent_writers_keep_each_others_keys(self, tmp_path):
        a = ArtifactStore(disk_dir=tmp_path)
        b = ArtifactStore(disk_dir=tmp_path)
        a.put("dtw_pair", _key("a"), 1.0)
        b.put("dtw_pair", _key("b"), 2.0)
        a.persist()
        b.persist()  # must not clobber a's entries
        fresh = ArtifactStore(disk_dir=tmp_path)
        assert fresh.get("dtw_pair", _key("a")) == 1.0
        assert fresh.get("dtw_pair", _key("b")) == 2.0

    def test_no_tmp_stragglers_after_persist(self, tmp_path):
        store = ArtifactStore(disk_dir=tmp_path)
        store.put("dtw_pair", _key(1), 5.0)
        store.persist()
        assert not list(tmp_path.glob("*.tmp"))
        # The directory is the index: segments only, no manifest.
        assert [path.name for path in tmp_path.iterdir()] == [
            path.name for path in tmp_path.glob("seg-*.npz")
        ]

    def test_export_full_contents(self, tmp_path):
        source = ArtifactStore(disk_dir=tmp_path / "src")
        source.put("dtw_pair", _key(1), 1.5)
        source.persist()
        source.clear_memory()  # disk-only entry
        source.put("forecast_window", _key(2), np.arange(4.0))  # memory-only entry
        assert source.export(tmp_path / "dst") == 2
        target = ArtifactStore(disk_dir=tmp_path / "dst")
        assert target.get("dtw_pair", _key(1)) == 1.5
        assert np.array_equal(target.get("forecast_window", _key(2)), np.arange(4.0))


class TestStoreView:
    def test_scope_isolation(self):
        store = ArtifactStore()
        a = store.view("forecast_window", scope=b"model-a")
        b = store.view("forecast_window", scope=b"model-b")
        a.put(3, np.ones(2))
        assert b.get(3) is None
        assert np.array_equal(a.get(3), np.ones(2))
        assert 3 in a and 3 not in b

    def test_unscoped_bytes_keys_pass_through(self):
        store = ArtifactStore()
        view = store.view("dtw_pair")
        view.put(_key("p"), 2.0)
        assert store.get("dtw_pair", _key("p")) == 2.0

    def test_counters(self):
        store = ArtifactStore()
        view = store.view("forecast_window", scope=b"m")
        assert view.get(1) is None
        view.put(1, np.ones(1))
        assert view.get(1) is not None
        assert view.stats["hits"] == 1 and view.stats["misses"] == 1

    def test_clear_resets_counters_not_store(self):
        store = ArtifactStore()
        view = store.view("forecast_window", scope=b"m")
        view.put(1, np.ones(1))
        view.get(1)
        view.clear()
        assert view.stats["hits"] == 0
        assert view.get(1) is not None  # shared state untouched

    def test_get_or_compute(self):
        store = ArtifactStore()
        view = store.view("mask_fill", scope=b"ctx")
        first = view.get_or_compute(_key("mask"), lambda: np.full(2, 7.0))
        second = view.get_or_compute(_key("mask"), lambda: np.full(2, 9.0))
        assert np.array_equal(first, second)
        assert view.stats["hits"] == 1 and view.stats["misses"] == 1


class TestProcessStore:
    @pytest.fixture(autouse=True)
    def _isolate(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        reset_store()
        yield
        reset_store()

    def test_inactive_by_default(self):
        assert active_store() is None
        assert active_store(False) is None

    def test_env_var_activates_disk_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        store = active_store(None)
        assert store is not None and store.disk_dir == tmp_path

    def test_true_forces_memory_store(self):
        store = active_store(True)
        assert store is not None and store.disk_dir is None
        assert active_store(None) is store  # now active process-wide

    def test_open_and_active_share_instance(self, tmp_path):
        opened = open_store(StoreConfig(disk_dir=tmp_path))
        assert active_store(True) is opened
        assert active_store(None) is opened
        assert active_store(False) is None  # explicit off still wins

    def test_env_quota_flows_into_opened_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        monkeypatch.setenv(CACHE_MAX_BYTES_ENV, "2M")
        store = active_store(None)
        assert store is not None and store.max_bytes == 2 << 20

    def test_from_env_overrides_win(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, "/elsewhere")
        config = StoreConfig.from_env(disk_dir=str(tmp_path), max_bytes=1024)
        assert config.disk_dir == str(tmp_path)
        assert config.max_bytes == 1024

    def test_parse_byte_size(self):
        assert parse_byte_size("1024") == 1024
        assert parse_byte_size("512K") == 512 << 10
        assert parse_byte_size("512MB") == 512 << 20
        assert parse_byte_size("1.5g") == int(1.5 * (1 << 30))
        assert parse_byte_size(None) is None
        assert parse_byte_size(42) == 42
        with pytest.raises(ValueError):
            parse_byte_size("lots")
        with pytest.raises(ValueError):
            parse_byte_size("-1")
        for infinite in ("inf", "1e400", "-inf", "1e400M"):
            with pytest.raises(ValueError):
                parse_byte_size(infinite)


class TestReviewRegressions:
    def test_read_only_store_never_accumulates_dirty(self, tmp_path):
        """A serving worker's store must not leak computed blocks into a
        dirty buffer it will never persist."""
        writer = ArtifactStore(disk_dir=tmp_path)
        writer.put("forecast_window", _key(1), np.ones(2))
        writer.persist()

        serving = ArtifactStore(disk_dir=tmp_path, read_only=True)
        assert np.array_equal(serving.get("forecast_window", _key(1)), np.ones(2))
        for i in range(20):  # fresh blocks computed under live traffic
            serving.put("forecast_window", _key("new", i), np.ones(2))
        assert serving.stats["totals"]["dirty"] == 0
        assert serving.persist() == 0
        # Memory tier still serves the freshly computed blocks.
        assert serving.get("forecast_window", _key("new", 3)) is not None

    def test_view_get_or_compute_single_store_probe(self):
        """One view-level miss must record exactly one store-level miss."""
        store = ArtifactStore()
        view = store.view("mask_fill", scope=b"ctx")
        view.get_or_compute(_key("m"), lambda: np.ones(2))
        stats = store.stats["namespaces"]["mask_fill"]
        assert stats["misses"] == 1
        view.get_or_compute(_key("m"), lambda: np.ones(2))
        stats = store.stats["namespaces"]["mask_fill"]
        assert stats["misses"] == 1 and stats["hits"] == 1

    def test_scope_ignores_cache_store_flag(self):
        """cache_store is metric-neutral and must not partition scopes."""
        import dataclasses as dc

        from repro.engine import default_store_scope

        @dc.dataclass
        class _Cfg:
            hidden: int = 8
            cache_store: bool | None = None

        class _Net:
            @staticmethod
            def state_dict():
                return {"w": np.ones(2)}

        class _Model:
            network = _Net()

        a, b = _Model(), _Model()
        a.config = _Cfg(cache_store=True)
        b.config = _Cfg(cache_store=None)
        assert default_store_scope(a) == default_store_scope(b)
        b.config = _Cfg(hidden=16, cache_store=None)  # real change still splits
        assert default_store_scope(a) != default_store_scope(b)

    def test_active_store_treats_integers_by_truthiness(self, tmp_path, monkeypatch):
        """active_store(0) must force isolation even when the process
        has opted in — identity-vs-equality mismatches are not allowed
        to leak artifacts into the shared cache."""
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        reset_store()
        assert active_store(0) is None
        assert active_store(1) is not None
        reset_store()

    def test_config_rejects_integer_cache_store(self):
        from repro.core import STSMConfig

        with pytest.raises(ValueError, match="cache_store"):
            STSMConfig(cache_store=0).validate()
        STSMConfig(cache_store=False).validate()  # real booleans fine


class TestByteStats:
    def test_memory_bytes_are_exact(self):
        store = ArtifactStore()
        store.put("dtw_pair", _key("a"), np.arange(3.0))      # 24 bytes
        store.put("dtw_pair", _key("b"), 1.5)                  # scalar -> 8
        ns = store.stats["namespaces"]["dtw_pair"]
        assert ns["memory_bytes"] == 32
        assert store.stats["totals"]["memory_bytes"] == 32
        assert store.stats["totals"]["disk_bytes"] == 0

    def test_namespace_byte_totals_roll_up(self, tmp_path):
        store = ArtifactStore(disk_dir=tmp_path)
        store.put("dtw_pair", _key("a"), np.arange(3.0))
        store.put("mask_fill", _key("b"), np.ones((4, 4)))
        store.persist()
        totals = store.stats["totals"]
        assert totals["memory_bytes"] == 24 + 128
        assert totals["disk_bytes"] == 24 + 128

    def test_metadata_survives_reload_into_stats(self, tmp_path):
        store = ArtifactStore(disk_dir=tmp_path)
        store.put("dtw_pair", _key("a"), np.arange(3.0))  # 24 bytes
        store.persist()
        fresh = ArtifactStore(disk_dir=tmp_path)
        ns = fresh.stats["namespaces"]["dtw_pair"]
        assert ns["disk_items"] == 1
        assert ns["disk_bytes"] == 24


class TestConcurrentStats:
    """Per-namespace stats stay coherent under reader/writer pressure."""

    def test_counters_monotone_under_concurrent_readers_writers(self):
        store = ArtifactStore()
        stop = threading.Event()
        errors: list[BaseException] = []
        keys = [_key("k", i) for i in range(32)]

        def writer():
            try:
                index = 0
                while not stop.is_set():
                    store.put("dtw_pair", keys[index % 32], float(index))
                    index += 1
            except BaseException as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        def reader():
            try:
                index = 0
                while not stop.is_set():
                    store.get("dtw_pair", keys[index % 32])
                    store.get("dtw_pair", _key("never", index))  # miss
                    index += 1
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        def scraper(snapshots):
            try:
                while not stop.is_set():
                    stats = store.stats["namespaces"].get("dtw_pair")
                    if stats is not None:
                        snapshots.append(
                            (stats["hits"], stats["misses"])
                        )
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        snapshots: list[tuple[int, int]] = []
        threads = (
            [threading.Thread(target=writer) for _ in range(2)]
            + [threading.Thread(target=reader) for _ in range(3)]
            + [threading.Thread(target=scraper, args=(snapshots,))]
        )
        for t in threads:
            t.start()
        import time

        time.sleep(0.4)
        stop.set()
        for t in threads:
            t.join(timeout=10.0)
        assert not errors, errors
        # Counters only ever go up across scrape snapshots.
        for (h0, m0), (h1, m1) in zip(snapshots, snapshots[1:]):
            assert h1 >= h0
            assert m1 >= m0
        final = store.stats["namespaces"]["dtw_pair"]
        assert final["hits"] > 0 and final["misses"] > 0
        assert final["memory_bytes"] >= 0

    def test_bytes_consistent_after_concurrent_refresh(self, tmp_path):
        """refresh_disk_index during writes keeps disk stats consistent.

        Two stores share one cache directory: a writer persists through
        one handle while the other handle refreshes its disk index; the
        refreshed handle's per-namespace disk bytes must equal the sum
        of what was actually persisted (no double counts, no negatives).
        """
        writer_store = ArtifactStore(disk_dir=tmp_path)
        reader_store = ArtifactStore(disk_dir=tmp_path)
        stop = threading.Event()
        errors: list[BaseException] = []

        def refresher():
            try:
                while not stop.is_set():
                    reader_store.refresh_disk_index()
                    stats = reader_store.stats["namespaces"].get("dtw_pair")
                    if stats is not None:
                        assert stats["disk_bytes"] >= 0
                        assert stats["disk_items"] >= 0
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        thread = threading.Thread(target=refresher)
        thread.start()
        try:
            for index in range(20):
                writer_store.put("dtw_pair", _key("c", index), np.arange(3.0))
                writer_store.persist()
        finally:
            stop.set()
            thread.join(timeout=10.0)
        assert not errors, errors
        reader_store.refresh_disk_index()
        ns = reader_store.stats["namespaces"]["dtw_pair"]
        assert ns["disk_items"] == 20
        assert ns["disk_bytes"] == 20 * 24


class TestContains:
    def test_memory_membership_counts_nothing(self):
        store = ArtifactStore()
        store.put("dtw_pair", _key(1), 1.0)
        assert store.contains("dtw_pair", _key(1))
        assert not store.contains("dtw_pair", _key(2))
        assert not store.contains("mask_fill", _key(1))
        totals = store.stats["totals"]
        assert (totals["hits"], totals["misses"]) == (0, 0)

    def test_disk_membership_does_not_promote(self, tmp_path):
        store = ArtifactStore(disk_dir=tmp_path)
        store.put("dtw_pair", _key(1), 1.0)
        store.persist()
        fresh = ArtifactStore(disk_dir=tmp_path)
        assert fresh.contains("dtw_pair", _key(1))
        totals = fresh.stats["totals"]
        assert (totals["memory_items"], totals["disk_hits"]) == (0, 0)


class TestCacheArguments:
    @pytest.fixture(autouse=True)
    def _clean_env(self, monkeypatch):
        for name in (CACHE_DIR_ENV, CACHE_MAX_BYTES_ENV, CACHE_MEMORY_ITEMS_ENV):
            monkeypatch.delenv(name, raising=False)

    @staticmethod
    def _parse(argv):
        parser = argparse.ArgumentParser()
        add_cache_arguments(parser)
        return parser.parse_args(argv)

    def test_no_flags_and_no_environment_opt_out(self):
        assert store_config_from_args(self._parse([])) is None

    def test_flags_build_the_config(self, tmp_path):
        args = self._parse([
            "--cache-dir", str(tmp_path), "--cache-max-bytes", "2M",
            "--cache-memory-items", "7",
        ])
        config = store_config_from_args(args)
        assert (config.disk_dir, config.max_bytes, config.memory_items) == (
            str(tmp_path), 2 << 20, 7,
        )

    def test_environment_alone_opts_in_and_flags_override_it(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_MEMORY_ITEMS_ENV, "5")
        monkeypatch.setenv(CACHE_MAX_BYTES_ENV, "1K")
        config = store_config_from_args(self._parse([]))
        assert (config.disk_dir, config.max_bytes, config.memory_items) == (None, 1024, 5)
        config = store_config_from_args(self._parse(["--cache-memory-items", "9"]))
        assert (config.max_bytes, config.memory_items) == (1024, 9)

    def test_unparseable_quota_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            self._parse(["--cache-max-bytes", "lots"])
        assert excinfo.value.code == 2
        assert "--cache-max-bytes" in capsys.readouterr().err
