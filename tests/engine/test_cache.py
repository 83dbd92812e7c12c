"""Engine caches: LRU semantics, content keys, bit-exact DTW memoisation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ArtifactStore, LRUCache, PairwiseDTWCache, array_key
from repro.temporal.dtw import dtw_distance_matrix


class TestArrayKey:
    def test_equal_content_equal_key(self):
        a = np.arange(6, dtype=float)
        b = np.arange(6, dtype=float)
        assert array_key(a) == array_key(b)

    def test_different_content_different_key(self):
        assert array_key(np.arange(6)) != array_key(np.arange(1, 7))

    def test_dtype_and_shape_matter(self):
        a = np.arange(6, dtype=np.int64)
        assert array_key(a) != array_key(a.astype(float))
        assert array_key(a) != array_key(a.reshape(2, 3))

    def test_non_contiguous_normalised(self):
        a = np.arange(12, dtype=float).reshape(3, 4)
        assert array_key(a[:, ::2]) == array_key(a[:, ::2].copy())

    def test_scalar_parts(self):
        assert array_key(np.arange(3), 5) != array_key(np.arange(3), 6)


class TestLRUCache:
    def test_hit_miss_counters(self):
        cache = LRUCache(maxsize=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats == {"hits": 1, "misses": 1, "size": 1}

    def test_eviction_order(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a"; "b" becomes LRU
        cache.put("c", 3)
        assert "b" not in cache
        assert "a" in cache and "c" in cache

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)

    def test_clear(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats == {"hits": 0, "misses": 0, "size": 0}


class TestLRUCacheThreadSafety:
    def test_concurrent_get_put_hammer(self):
        """Many threads mutating one bounded cache: consistent, bounded, correct."""
        import threading

        cache = LRUCache(maxsize=16)
        errors = []

        def worker(tid: int) -> None:
            try:
                rng = np.random.default_rng(tid)
                for _ in range(800):
                    key = int(rng.integers(0, 48))
                    value = cache.get(key)
                    if value is not None and value != key * 2:
                        raise AssertionError(f"corrupt value for {key}: {value}")
                    cache.put(key, key * 2)
            except BaseException as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(tid,)) for tid in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 16
        stats = cache.stats
        assert stats["hits"] + stats["misses"] == 8 * 800

    def test_single_thread_semantics_unchanged(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a" (LRU)
        assert "a" not in cache
        assert len(cache) == 2


class TestPairwiseDTWCache:
    def _profiles(self, n=6, t=16, seed=0):
        return np.random.default_rng(seed).normal(size=(n, t))

    def test_self_matrix_matches_uncached(self):
        profiles = self._profiles()
        cache = PairwiseDTWCache(ArtifactStore())
        assert np.array_equal(
            cache.distance_matrix(profiles), dtw_distance_matrix(profiles)
        )

    def test_cross_matrix_matches_uncached(self):
        obs = self._profiles(5, 16, seed=1)
        tgt = self._profiles(3, 16, seed=2)
        cache = PairwiseDTWCache(ArtifactStore())
        assert np.array_equal(
            cache.distance_matrix(obs, tgt), dtw_distance_matrix(obs, tgt)
        )

    def test_unchanged_pairs_hit_cache(self):
        profiles = self._profiles(n=8)
        cache = PairwiseDTWCache(ArtifactStore())
        cache.distance_matrix(profiles)
        assert cache.stats["hits"] == 0
        # Perturb two rows: only pairs touching them should recompute.
        perturbed = profiles.copy()
        perturbed[0] += 1.0
        perturbed[3] -= 1.0
        before_misses = cache.stats["misses"]
        out = cache.distance_matrix(perturbed)
        unchanged_pairs = 6 * 5 // 2  # pairs among the 6 untouched rows
        assert cache.stats["hits"] == unchanged_pairs
        assert cache.stats["misses"] - before_misses == 8 * 7 // 2 - unchanged_pairs
        assert np.array_equal(out, dtw_distance_matrix(perturbed))

    def test_symmetric_pair_sharing(self):
        # Cross distances reuse entries regardless of argument order.
        obs = self._profiles(4, 16, seed=3)
        tgt = self._profiles(2, 16, seed=4)
        cache = PairwiseDTWCache(ArtifactStore())
        first = cache.distance_matrix(obs, tgt)
        flipped = cache.distance_matrix(tgt, obs)
        assert np.array_equal(first, flipped.T)
        assert cache.stats["hits"] == first.size

    def test_single_series_is_zero(self):
        cache = PairwiseDTWCache(ArtifactStore())
        assert np.array_equal(cache.distance_matrix(np.ones((1, 8))), np.zeros((1, 1)))


@settings(max_examples=60, deadline=None)
@given(
    capacity=st.integers(1, 8),
    n=st.integers(1, 6),
    m=st.one_of(st.none(), st.integers(1, 4)),
    length=st.integers(2, 10),
    seed=st.integers(0, 2**16),
    repeats=st.integers(1, 3),
)
def test_memo_under_eviction_matches_uncached(capacity, n, m, length, seed, repeats):
    """A DTW memo smaller than one call's pair count evicts entries
    mid-call, yet every result stays bitwise the uncached matrix."""
    rng = np.random.default_rng(seed)
    # Rounded values make duplicate rows (shared pair keys) likely.
    series = np.round(rng.normal(size=(n, length)), 1)
    others = None if m is None else np.round(rng.normal(size=(m, length)), 1)
    if others is not None and rng.random() < 0.5:
        others[0] = series[0]  # one profile on both sides of the cross matrix
    cache = PairwiseDTWCache(ArtifactStore(maxsize={"dtw_pair": capacity}))
    expected = dtw_distance_matrix(series, others)
    for _ in range(repeats):
        out = cache.distance_matrix(series, others)
        assert out.tobytes() == expected.tobytes()
