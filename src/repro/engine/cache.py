"""Memoisation primitives for expensive fit/predict-time artifacts.

Two costs dominate repeated STSM training epochs: IDW pseudo-observation
fills and the quadratic DTW adjacency rebuild (§3.4.1 recomputes
``A_dtw^train`` every epoch because the mask changes).  Both are pure
functions of the drawn mask once the scaled observations are fixed, and
across epochs most *pairs* of series do not change at all — only the
masked columns do.  This module provides content-addressed caches that
exploit exactly that:

* :class:`LRUCache` — bounded memo store, the per-namespace memory tier
  of :class:`~repro.engine.store.ArtifactStore`;
* :func:`array_key` — stable content hash of numpy arrays / scalars,
  used to key cache entries by mask identity;
* :class:`PairwiseDTWCache` — a drop-in for
  :func:`repro.temporal.dtw.dtw_distance_matrix` that memoises *per
  series pair* in a store view, so an epoch whose mask leaves a pair of
  daily profiles untouched never re-runs that pair's dynamic program.

Everything cached here is bit-exact: cache hits return the same floats
the uncached computation would have produced, so fixed-seed training
metrics are unchanged by enabling the caches.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Hashable

import numpy as np

from ..temporal.dtw import DEFAULT_CHUNK_PAIRS, _dtw_batch_chunked

__all__ = ["LRUCache", "PairwiseDTWCache", "array_key"]

_MISSING = object()


def array_key(*parts) -> bytes:
    """Stable content key for a mix of numpy arrays and plain scalars.

    Arrays are hashed over dtype, shape and raw bytes so two arrays with
    equal contents (and layout-normalised via ``ascontiguousarray``)
    collide intentionally; non-array parts contribute their ``repr``.
    """
    digest = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            arr = np.ascontiguousarray(part)
            digest.update(str(arr.dtype).encode())
            digest.update(str(arr.shape).encode())
            digest.update(arr.tobytes())
        else:
            digest.update(repr(part).encode())
        digest.update(b"|")
    return digest.digest()


class LRUCache:
    """Bounded least-recently-used memo store with hit/miss counters.

    Thread-safe: every operation takes an internal lock, so the serving
    scheduler's worker thread and direct callers can share one store
    (get/put are individually atomic).  The lock is uncontended in
    single-threaded use, so the overhead per operation is a fraction of
    a microsecond — negligible next to the DTW dynamic programs and
    model ``predict`` calls being memoised.
    """

    def __init__(self, maxsize: int = 128) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._store: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._store

    def get(self, key: Hashable, default=None):
        with self._lock:
            if key in self._store:
                self._store.move_to_end(key)
                self.hits += 1
                return self._store[key]
            self.misses += 1
            return default

    def put(self, key: Hashable, value) -> None:
        with self._lock:
            self._store[key] = value
            self._store.move_to_end(key)
            while len(self._store) > self.maxsize:
                self._store.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._store.clear()
            self.hits = 0
            self.misses = 0

    def items(self) -> list[tuple[Hashable, object]]:
        """Snapshot of the stored (key, value) pairs, LRU order."""
        with self._lock:
            return list(self._store.items())

    @property
    def stats(self) -> dict:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses, "size": len(self._store)}


class PairwiseDTWCache:
    """Per-pair memoising replacement for ``dtw_distance_matrix``.

    STSM rebuilds its temporal adjacency every epoch from daily profiles
    in which only the freshly masked columns changed; the DTW distance of
    every untouched (observed, observed) pair is identical to the
    previous epoch's.  :meth:`distance_matrix` hashes each profile row,
    looks up every pair by its (unordered — DTW under absolute-difference
    cost is symmetric) content key, and runs the batched dynamic program
    only for the pairs never seen before.  Results are bitwise identical
    to the uncached function because the same ``_dtw_batch`` kernel
    evaluates each missing pair, independently per row.

    Pairs live in the ``dtw_pair`` namespace of ``store`` (an
    :class:`~repro.engine.store.ArtifactStore`): pair keys hash profile
    content, so over a shared store they are valid across fits and
    across processes, and sweeps over seeds or hyper-parameters reuse
    every unchanged pair.  A private store isolates one fit.
    """

    def __init__(self, store) -> None:
        self._cache = store.view("dtw_pair")

    @property
    def stats(self) -> dict:
        return self._cache.stats

    def distance_matrix(
        self,
        series: np.ndarray,
        others: np.ndarray | None = None,
    ) -> np.ndarray:
        """Memoised drop-in for :func:`repro.temporal.dtw.dtw_distance_matrix`."""
        series = np.atleast_2d(np.asarray(series, dtype=float))
        if others is None:
            n = len(series)
            if n < 2:
                return np.zeros((n, n))
            pair_i, pair_j = np.triu_indices(n, k=1)
            left, right = series, series
        else:
            others = np.atleast_2d(np.asarray(others, dtype=float))
            n, m = len(series), len(others)
            grid_i, grid_j = np.meshgrid(np.arange(n), np.arange(m), indexing="ij")
            pair_i, pair_j = grid_i.ravel(), grid_j.ravel()
            left, right = series, others

        left_keys = [array_key(row) for row in left]
        right_keys = left_keys if others is None else [array_key(row) for row in right]

        flat = np.empty(len(pair_i))
        missing: list[int] = []
        for pos, (i, j) in enumerate(zip(pair_i, pair_j)):
            key = self._pair_key(left_keys[int(i)], right_keys[int(j)])
            value = self._cache.get(key, _MISSING)
            if value is _MISSING:
                missing.append(pos)
            else:
                flat[pos] = value
        if missing:
            rows = np.asarray(missing)
            # Chunked like the uncached function: a cold cache misses
            # every one of the N(N-1)/2 pairs at once, which is exactly
            # the all-pairs memory spike the chunking bounds.
            computed = _dtw_batch_chunked(
                left, right, pair_i[rows], pair_j[rows], DEFAULT_CHUNK_PAIRS
            )
            flat[rows] = computed
            for pos, value in zip(missing, computed):
                key = self._pair_key(
                    left_keys[int(pair_i[pos])], right_keys[int(pair_j[pos])]
                )
                self._cache.put(key, float(value))

        if others is None:
            out = np.zeros((n, n))
            out[pair_i, pair_j] = flat
            out[pair_j, pair_i] = flat
            return out
        return flat.reshape(n, len(others))

    @staticmethod
    def _pair_key(key_a: bytes, key_b: bytes) -> bytes:
        # Unordered pair: DTW(a, b) == DTW(b, a) for the symmetric
        # absolute-difference cost, so both orders share one entry.
        return key_a + key_b if key_a <= key_b else key_b + key_a
