"""Process-wide content-addressed artifact store with an optional disk tier.

PR 1's :class:`~repro.engine.cache.PairwiseDTWCache` amortises the
quadratic DTW rebuild *within* one fit; every sweep over seeds or
hyper-parameters still re-pays identical per-pair work across fits, and
every fresh process starts cold.  The :class:`ArtifactStore` closes both
gaps: one thread-safe store shared by every fit in the process, keyed by
:func:`~repro.engine.cache.array_key` content hashes and namespaced by
artifact kind —

* ``dtw_pair`` — per-pair DTW distances (floats);
* ``mask_fill`` — mask-keyed normalised ``A_dtw^train`` adjacencies;
* ``forecast_window`` — served per-window forecast blocks.

Two tiers: a bounded-memory LRU per namespace, plus an optional disk
tier of immutable ``seg-*.npz`` segments under a cache directory
(typically ``$REPRO_CACHE_DIR``) so artifacts survive across processes.
Every segment records its own namespace and keys, so the directory
listing is the index: there is no manifest.  Disk writes are atomic
(temp file + ``os.replace``) and loads are corruption-tolerant: an
unreadable segment degrades to a cache miss, never a crash.

Processes share one directory without coordinating, under three rules:

* **One live copy.** Among the segments that hold a key, the one with
  the greatest filename serves it, in every process.  When that segment
  goes away, the key falls back to the next-greatest holder.  All
  processes agree on which copy is dead, so two collectors can never
  each delete the other's copy.
* **Unique, time-ordered names.** ``seg-{time_ns}-{pid}-{token}-{ns}.npz``
  is never reused after its file is deleted, so a process with a stale
  index cannot delete a newer file by name, and (with a wall clock that
  does not step back) the greatest name is the newest copy.
* **The file mtime is the LRU stamp.** A writable store touches a
  segment on every disk hit; eviction order is ``(mtime, name)``.

Bit-exactness contract: the store never transforms values.  A hit —
memory or disk — returns exactly the floats the uncached computation
would have produced (ndarray round-trips through ``.npz`` preserve raw
bits, NaN payloads included), so enabling the store cannot change any
fixed-seed metric.

Invalidation is free by construction: keys hash the *content* of every
input that determines the artifact, so changed data or hyper-parameters
simply miss.  Stale entries are only ever evicted (memory LRU) or left
unreferenced on disk; a cache directory can always be deleted wholesale.

Lifecycle: a byte quota (``max_bytes`` / ``--cache-max-bytes`` /
``$REPRO_CACHE_MAX_BYTES``) is enforced at :meth:`ArtifactStore.persist`
time and on demand via :meth:`ArtifactStore.gc`, which first compacts
sparse segments (less than half of the payload bytes live → rewritten
dense) and then evicts whole least-recently-used segments until the
tier fits.  The bit-exact contract survives: a surviving hit is
byte-identical, an evicted entry is a miss that recomputes — never a
wrong answer.

Process wiring is a single pair — :func:`open_store` installs a store
built from a :class:`StoreConfig` (environment-backed), and
:func:`active_store` resolves the three-state per-fit opt-in flag.
"""

from __future__ import annotations

import dataclasses
import math
import os
import secrets
import threading
import time
import types
import warnings
import zipfile
from collections import OrderedDict
from pathlib import Path

import numpy as np
from numpy.lib import format as npy_format

from ..obs.trace import current_trace, record_span
from .cache import LRUCache, array_key

__all__ = [
    "ArtifactStore",
    "StoreConfig",
    "StoreView",
    "CACHE_DIR_ENV",
    "CACHE_MAX_BYTES_ENV",
    "CACHE_MEMORY_ITEMS_ENV",
    "active_store",
    "add_cache_arguments",
    "default_store_scope",
    "open_store",
    "parse_byte_size",
    "publish_store",
    "reset_store",
    "store_config_from_args",
    "store_metric_samples",
]

#: Environment variable that opt-ins the process-wide store with a disk
#: tier rooted at its value (the ``--cache-dir`` CLI flags set the same
#: directory explicitly).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Disk-tier byte quota (``--cache-max-bytes``): persist()/gc() evict
#: whole LRU segments until the tier fits.  Accepts K/M/G/T suffixes.
CACHE_MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"
#: Memory-tier per-namespace entry capacity (``--cache-memory-items``).
CACHE_MEMORY_ITEMS_ENV = "REPRO_CACHE_MEMORY_ITEMS"

_MISSING = object()
_SEGMENT_GLOB = "seg-*.npz"
_SCALAR_KEYS = "__scalar_keys__"
_SCALAR_VALUES = "__scalar_values__"
_NAMESPACE_KEY = "__namespace__"
_ARRAY_PREFIX = "a:"
_NPY_HEADER_READERS = {
    (1, 0): npy_format.read_array_header_1_0,
    (2, 0): npy_format.read_array_header_2_0,
}
#: gc() rewrites a segment dense when less than this share of its
#: payload bytes is live (the rest superseded by greater-named copies).
_COMPACT_RATIO = 0.5
#: Decoded segments kept in memory (a segment is loaded whole on its
#: first hit — entries written together are usually requested together).
_MAX_LOADED_SEGMENTS = 8

#: Default per-namespace memory-tier capacities.  ``dtw_pair`` entries
#: are single floats so the tier can afford to be deep; adjacency and
#: forecast blocks are full arrays and stay shallower.
DEFAULT_MAXSIZE = {"dtw_pair": 1 << 17, "mask_fill": 1024, "forecast_window": 4096}
_FALLBACK_MAXSIZE = 4096


def _payload_bytes(value) -> int:
    """Disk-tier payload size of one stored value (floats are 8 bytes)."""
    return int(value.nbytes) if isinstance(value, np.ndarray) else 8


_SIZE_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30, "t": 1 << 40}


def parse_byte_size(text: str | int | None) -> int | None:
    """``"512M"`` → ``536870912``: byte sizes with binary K/M/G/T suffixes.

    Accepts plain ints (returned as-is), ``None`` (passed through so
    unset env vars stay unset), decimal magnitudes (``"1.5G"``) and an
    optional trailing ``B`` (``"512MB"``).  The parser for every quota
    surface — ``--cache-max-bytes`` and ``$REPRO_CACHE_MAX_BYTES``.
    Negative, infinite and unparseable sizes raise ``ValueError``.
    """
    if text is None or isinstance(text, int):
        return text
    cleaned = str(text).strip().lower()
    if cleaned.endswith("b") and len(cleaned) > 1:
        cleaned = cleaned[:-1]
    factor = 1
    if cleaned and cleaned[-1] in _SIZE_SUFFIXES:
        factor = _SIZE_SUFFIXES[cleaned[-1]]
        cleaned = cleaned[:-1]
    try:
        value = int(float(cleaned) * factor) if cleaned else None
    except (ValueError, OverflowError):  # OverflowError: "inf", "1e400"
        value = None
    if value is None or value < 0:
        raise ValueError(f"unparseable byte size {text!r} (want e.g. 1048576, 512M, 1.5G)")
    return value


class ArtifactStore:
    """Thread-safe two-tier content-addressed store.

    Parameters
    ----------
    maxsize:
        Memory-tier capacity: an int applied to every namespace, or a
        ``{namespace: capacity}`` dict (missing namespaces fall back to
        :data:`DEFAULT_MAXSIZE` / 4096).
    disk_dir:
        Optional disk-tier directory.  Created on first ``persist()``;
        an existing directory's segments are indexed immediately so
        earlier processes' artifacts are visible.
    read_only:
        Serve from the disk tier without ever writing back: ``put``
        still populates the memory tier, but nothing is queued for
        ``persist()`` (which becomes a no-op) and disk hits leave the
        segments' LRU stamps alone.  The mode for long-lived serving
        workers over a bundle's exported cache — without it, every
        freshly computed block would accumulate in the dirty buffer
        forever, since nothing in the serving path persists.
        Read-only stores refuse :meth:`gc` outright.
    max_bytes:
        Optional disk-tier byte quota.  When set, every ``persist()``
        ends with a :meth:`gc` pass that evicts whole least-recently-
        used segments until the indexed segment files fit the quota.
        Accepts ``parse_byte_size`` strings (``"512M"``).

    Keys are ``bytes`` (16-byte :func:`array_key` digests); values are
    ``float`` or ``np.ndarray``.  Anything else is a ``TypeError`` at
    ``put`` time so the disk tier can always round-trip what memory
    holds.
    """

    def __init__(
        self,
        maxsize: int | dict | None = None,
        disk_dir: str | Path | None = None,
        *,
        read_only: bool = False,
        max_bytes: int | str | None = None,
    ) -> None:
        if isinstance(maxsize, int):
            if maxsize < 1:
                raise ValueError(f"maxsize must be >= 1, got {maxsize}")
            self._maxsize: dict = {}
            self._fallback_maxsize = maxsize
        else:
            self._maxsize = dict(DEFAULT_MAXSIZE)
            if maxsize:
                self._maxsize.update(maxsize)
            self._fallback_maxsize = _FALLBACK_MAXSIZE
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.read_only = read_only
        self.max_bytes = parse_byte_size(max_bytes)
        self._lock = threading.RLock()
        self._tiers: dict[str, LRUCache] = {}
        # Indexed segment files: filename -> {(ns, hex key): payload
        # bytes}, dead duplicates included.  An unreadable file is
        # indexed empty, so it still counts against the quota.
        self._segments: dict[str, dict[tuple[str, str], int]] = {}
        # Derived from _segments by the live-copy rule: (ns, hex key) ->
        # the greatest-named segment that holds it.
        self._disk_index: dict[tuple[str, str], str] = {}
        # Decoded segments, LRU-bounded: filename -> {(ns, hex): value}.
        self._loaded: OrderedDict[str, dict] = OrderedDict()
        # Entries written since the last persist(): (ns, key) -> value.
        self._dirty: dict[tuple[str, bytes], object] = {}
        # Telemetry, per namespace.
        self._hits: dict[str, int] = {}
        self._disk_hits: dict[str, int] = {}
        self._misses: dict[str, int] = {}
        self.corrupt_segments = 0
        # Lifecycle telemetry (cumulative over this store's lifetime).
        self._lifecycle = {
            "gc_runs": 0,
            "evicted_segments": 0,
            "evicted_entries": 0,
            "evicted_bytes": 0,
            "compacted_segments": 0,
            "compacted_entries": 0,
            "reclaimed_bytes": 0,
        }
        if self.disk_dir is not None and self.disk_dir.exists():
            with self._lock:
                self._sync_index()

    # ------------------------------------------------------------------
    # Core get/put
    # ------------------------------------------------------------------
    def _tier(self, namespace: str) -> LRUCache:
        tier = self._tiers.get(namespace)
        if tier is None:
            capacity = self._maxsize.get(namespace, self._fallback_maxsize)
            tier = self._tiers[namespace] = LRUCache(maxsize=capacity)
            self._hits.setdefault(namespace, 0)
            self._disk_hits.setdefault(namespace, 0)
            self._misses.setdefault(namespace, 0)
        return tier

    def get(self, namespace: str, key: bytes, default=None):
        """Memory-first lookup; falls back to the disk tier, then ``default``."""
        with self._lock:
            tier = self._tier(namespace)
            value = tier.get(key, _MISSING)
            if value is not _MISSING:
                self._hits[namespace] += 1
                return value
            value = self._disk_get(namespace, key)
            if value is not _MISSING:
                self._disk_hits[namespace] += 1
                tier.put(key, value)  # promote
                return value
            self._misses[namespace] += 1
            return default

    def put(self, namespace: str, key: bytes, value) -> None:
        """Store ``value``; queued for the disk tier until :meth:`persist`."""
        if not isinstance(key, bytes):
            raise TypeError(f"store keys must be bytes (array_key digests), got {type(key).__name__}")
        if isinstance(value, (bool, int)) or not isinstance(value, (float, np.ndarray)):
            raise TypeError(
                f"store values must be float or ndarray, got {type(value).__name__}"
            )
        with self._lock:
            self._tier(namespace).put(key, value)
            if self.disk_dir is not None and not self.read_only:
                self._dirty[(namespace, key)] = value

    def get_or_compute(self, namespace: str, key: bytes, compute):
        """Atomic-enough get-or-put: ``compute`` runs outside the lock.

        Two threads racing on one missing key may both compute; the
        first writer wins and the loser adopts the stored value — for
        the bit-exact artifacts kept here, which one wins is
        unobservable.
        """
        value = self.get(namespace, key, _MISSING)
        if value is _MISSING:
            value = compute()
            with self._lock:
                stored = self._tier(namespace).get(key, _MISSING)
                if stored is not _MISSING:
                    return stored
                self.put(namespace, key, value)
        return value

    def contains(self, namespace: str, key: bytes) -> bool:
        """Membership across both tiers (no promotion, no counters)."""
        with self._lock:
            if key in self._tier(namespace):
                return True
            return (namespace, key.hex()) in self._disk_index

    # ------------------------------------------------------------------
    # Disk tier
    # ------------------------------------------------------------------
    def _disk_get(self, namespace: str, key: bytes):
        entry = (namespace, key.hex())
        # A segment that turns out vanished or corrupt is dropped from
        # the index, which hands the key to its next-greatest holder.
        while (segment := self._disk_index.get(entry)) is not None:
            decoded = self._decoded(segment)
            if decoded is None:
                continue
            if not self.read_only:
                now = time.time_ns()
                try:
                    os.utime(self.disk_dir / segment, ns=(now, now))
                except OSError:
                    pass  # evicted meanwhile: the decoded copy still serves
            return decoded[entry]
        return _MISSING

    def _decoded(self, filename: str) -> dict | None:
        """One segment's entries, decoded whole and LRU-cached."""
        decoded = self._loaded.get(filename)
        if decoded is not None:
            self._loaded.move_to_end(filename)
            return decoded
        decoded = self._read_segment(filename, decode=True)
        if decoded is None:
            return None
        self._loaded[filename] = decoded
        while len(self._loaded) > _MAX_LOADED_SEGMENTS:
            self._loaded.popitem(last=False)
        return decoded

    def _read_segment(self, filename: str, *, decode: bool) -> dict | None:
        """Read one segment: ``{(ns, hex): value}``, or payload sizes.

        With ``decode=False`` array members contribute the payload size
        from their npy header and are never decoded.  A vanished file
        is dropped from the index silently (another process's gc()); an
        unreadable one warns, counts in ``corrupt_segments`` and stays
        indexed with no entries.
        """
        path = self.disk_dir / filename
        entries: dict[tuple[str, str], object] = {}
        try:
            with zipfile.ZipFile(path) as archive:

                def read(member):
                    with archive.open(member + ".npy") as handle:
                        return npy_format.read_array(handle, allow_pickle=False)

                def payload_bytes(member):
                    with archive.open(member + ".npy") as handle:
                        version = npy_format.read_magic(handle)
                        shape, _fortran, dtype = _NPY_HEADER_READERS[version](handle)
                    return math.prod(shape) * dtype.itemsize

                members = [name.removesuffix(".npy") for name in archive.namelist()]
                namespace = bytes(read(_NAMESPACE_KEY)).decode("utf-8")
                if _SCALAR_KEYS in members:
                    keys = read(_SCALAR_KEYS)
                    values = read(_SCALAR_VALUES).tolist() if decode else [8] * len(keys)
                    for hexkey, value in zip(keys, values):
                        entries[(namespace, str(hexkey))] = value
                for member in members:
                    if member.startswith(_ARRAY_PREFIX):
                        entries[(namespace, member[len(_ARRAY_PREFIX):])] = (
                            read(member) if decode else payload_bytes(member)
                        )
        except FileNotFoundError:
            self._forget([filename])
            return None
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as error:
            warnings.warn(f"dropping unreadable cache segment {path}: {error}")
            self.corrupt_segments += 1
            self._forget([filename])
            self._segments[filename] = {}
            return None
        return entries

    def _index_segment(self, filename: str, sizes: dict[tuple[str, str], int]) -> None:
        self._segments[filename] = sizes
        for entry in sizes:
            live = self._disk_index.get(entry)
            if live is None or filename > live:
                self._disk_index[entry] = filename

    def _forget(self, filenames) -> None:
        """Drop segments from the index; their live keys fall back to
        the next-greatest holder, or leave the index when none is left."""
        orphans: set[tuple[str, str]] = set()
        for filename in filenames:
            self._loaded.pop(filename, None)
            for entry in self._segments.pop(filename, {}):
                if self._disk_index.get(entry) == filename:
                    del self._disk_index[entry]
                    orphans.add(entry)
        for filename in sorted(self._segments, reverse=True):
            if not orphans:
                break
            held = orphans.intersection(self._segments[filename])
            for entry in held:
                self._disk_index[entry] = filename
            orphans -= held

    def _sync_index(self) -> None:
        """Make the index match the directory: drop vanished segments,
        index the ones not seen before (headers only)."""
        on_disk = {path.name for path in self.disk_dir.glob(_SEGMENT_GLOB)}
        self._forget([name for name in self._segments if name not in on_disk])
        for filename in sorted(on_disk.difference(self._segments)):
            sizes = self._read_segment(filename, decode=False)
            if sizes is not None:
                self._index_segment(filename, sizes)

    def refresh_disk_index(self) -> int:
        """Re-index the disk tier to pick up concurrent writers' segments.

        The disk index is built when the store is created; a store that
        lives while *other processes* persist into the same directory
        (the parallel sweep executor's workers all share one
        ``$REPRO_CACHE_DIR``) will not see their segments until this is
        called.  One directory listing: segments another process's
        :meth:`gc` deleted are dropped, and only segments not indexed
        before are opened (their npy headers, not their arrays).
        Returns the net change in indexed entries (negative when a
        concurrent GC removed more than new writers added).
        """
        with self._lock:
            if self.disk_dir is None or not self.disk_dir.exists():
                return 0
            before = len(self._disk_index)
            self._sync_index()
            return len(self._disk_index) - before

    def persist(self) -> int:
        """Flush queued entries to new disk segments; returns entry count.

        Atomic per file: each segment is staged next to its final name
        and ``os.replace``d, so a crashed writer leaves at worst a
        ``.tmp`` straggler, never a half-written archive.  Segment names
        are unique, so concurrent writers from other processes never
        clobber each other.  No-op without a disk tier, in
        ``read_only`` mode, or with nothing dirty.

        When ``max_bytes`` is configured, persisting ends with a
        :meth:`gc` pass so the tier never outgrows its quota between
        explicit collections — also when nothing was dirty, since an
        earlier unbounded writer may have left the tier over budget.
        """
        with self._lock:
            if self.disk_dir is None or self.read_only:
                return 0
            written = len(self._dirty)
            if self._dirty:
                self.disk_dir.mkdir(parents=True, exist_ok=True)
                by_namespace: dict[str, dict[bytes, object]] = {}
                for (namespace, key), value in self._dirty.items():
                    by_namespace.setdefault(namespace, {})[key] = value
                for namespace, entries in sorted(by_namespace.items()):
                    self._write_segment(namespace, entries)
                self._dirty.clear()
            if self.max_bytes is not None:
                self.gc()
            return written

    def _write_segment(
        self, namespace: str, entries: dict[bytes, object], mtime_ns: int | None = None
    ) -> str:
        """Stage-and-replace one ``.npz`` segment and index it.

        Shared by ``persist()`` (dirty entries) and compaction (live
        entries rewritten dense, stamped with ``mtime_ns``).
        """
        slug = "".join(c if c.isalnum() or c in "-_" else "_" for c in namespace)
        filename = (
            f"seg-{time.time_ns():020d}-{os.getpid()}-{secrets.token_hex(4)}-{slug}.npz"
        )
        scalar_keys, scalar_values, payload = [], [], {}
        for key, value in entries.items():
            if isinstance(value, float):
                scalar_keys.append(key.hex())
                scalar_values.append(value)
            else:
                payload[_ARRAY_PREFIX + key.hex()] = value
        payload[_NAMESPACE_KEY] = np.frombuffer(
            namespace.encode("utf-8"), dtype=np.uint8
        )
        if scalar_keys:
            payload[_SCALAR_KEYS] = np.asarray(scalar_keys)
            payload[_SCALAR_VALUES] = np.asarray(scalar_values, dtype=np.float64)
        staging = self.disk_dir / (filename + ".tmp")
        with open(staging, "wb") as handle:
            np.savez(handle, **payload)
        if mtime_ns:
            os.utime(staging, ns=(mtime_ns, mtime_ns))
        os.replace(staging, self.disk_dir / filename)
        self._index_segment(
            filename,
            {(namespace, key.hex()): _payload_bytes(value) for key, value in entries.items()},
        )
        return filename

    def export(self, directory: str | Path) -> int:
        """Write the store's *entire* contents as a fresh disk tier.

        Used to embed warmed cache contents in serving bundles: the
        target directory gets its own segments, readable by
        ``ArtifactStore(disk_dir=...)`` in any later process.  Returns
        the number of entries exported.
        """
        target = ArtifactStore(disk_dir=directory)
        with self._lock:
            for namespace, tier in self._tiers.items():
                for key, value in tier.items():
                    target.put(namespace, key, value)
            for namespace, hexkey in list(self._disk_index):
                key = bytes.fromhex(hexkey)
                value = self._disk_get(namespace, key)
                if value is not _MISSING:
                    target.put(namespace, key, value)
        return target.persist()

    # ------------------------------------------------------------------
    # Lifecycle: compaction + quota-bounded GC
    # ------------------------------------------------------------------
    def disk_usage(self) -> int:
        """On-disk bytes of every indexed segment file (the quota unit)."""
        with self._lock:
            return sum(size for size, _mtime in self._segment_stats().values())

    def _segment_stats(self) -> dict[str, tuple[int, int]]:
        """``(size, mtime_ns)`` per indexed segment (missing files: 0, 0)."""
        stats: dict[str, tuple[int, int]] = {}
        if self.disk_dir is None:
            return stats
        for filename in self._segments:
            try:
                stat = (self.disk_dir / filename).stat()
                stats[filename] = (stat.st_size, stat.st_mtime_ns)
            except OSError:
                stats[filename] = (0, 0)
        return stats

    def gc(self, target_bytes: int | None = None) -> dict:
        """Bound the disk tier: compact sparse segments, then evict cold ones.

        ``target_bytes`` defaults to the configured quota
        (``max_bytes``); with neither set only compaction runs.
        Eviction removes whole segments, coldest first by ``(mtime,
        name)``, until the indexed segment files fit the target.  A
        reader holding a stale index sees a plain miss on a removed
        segment and recomputes, never a partial or wrong value.  Only
        segments this store has indexed are touched, so a concurrent
        writer's fresh, not-yet-indexed segments are never collected.

        Raises ``RuntimeError`` on a read-only store: a serving worker
        over a bundle's cache must never mutate it.
        """
        if self.read_only:
            raise RuntimeError("read-only ArtifactStore refuses gc()")
        with self._lock:
            summary = {
                "compacted_segments": 0,
                "compacted_entries": 0,
                "reclaimed_bytes": 0,
                "evicted_segments": 0,
                "evicted_entries": 0,
                "evicted_bytes": 0,
                "disk_bytes_before": 0,
                "disk_bytes_after": 0,
                "target_bytes": target_bytes if target_bytes is not None else self.max_bytes,
            }
            if self.disk_dir is None or not self.disk_dir.exists():
                return summary
            summary["disk_bytes_before"] = self.disk_usage()
            summary.update(self._compact_locked())
            target = summary["target_bytes"]
            if target is not None:
                summary.update(self._evict_locked(int(target)))
            summary["disk_bytes_after"] = self.disk_usage()
            self._lifecycle["gc_runs"] += 1
            return summary

    def _unlink(self, filenames: list[str]) -> None:
        for filename in filenames:
            try:
                (self.disk_dir / filename).unlink()
            except OSError:
                pass  # already gone (concurrent gc)
        self._forget(filenames)

    def _evict_locked(self, target: int) -> dict:
        """Unlink the coldest indexed segments until the tier fits ``target``."""
        stats = self._segment_stats()
        total = sum(size for size, _mtime in stats.values())
        victims: list[str] = []
        for filename in sorted(stats, key=lambda name: (stats[name][1], name)):
            if total <= target:
                break
            victims.append(filename)
            total -= stats[filename][0]
        before = len(self._disk_index)
        self._unlink(victims)
        result = {
            "evicted_segments": len(victims),
            "evicted_entries": before - len(self._disk_index),
            "evicted_bytes": sum(stats[name][0] for name in victims),
        }
        for field, value in result.items():
            self._lifecycle[field] += value
        return result

    def _compact_locked(self) -> dict:
        """Rewrite sparse segments dense (live entries only, bit-exact).

        A segment is sparse when its live payload bytes — entries for
        which it is the greatest-named holder — fall below
        :data:`_COMPACT_RATIO` of its payload bytes.  The dead entries
        have greater-named copies, which every process treats as live,
        so no other collector deletes them as dead in turn.  The live
        entries are written to a new segment, stamped with the newest
        source mtime, *before* the sparse sources are unlinked, so a
        crash mid-compaction leaves duplicates, never losses.
        """
        result = {"compacted_segments": 0, "compacted_entries": 0, "reclaimed_bytes": 0}
        sparse: dict[str, list[tuple[str, str]]] = {}
        for filename, sizes in self._segments.items():
            live = [entry for entry in sizes if self._disk_index.get(entry) == filename]
            live_bytes = sum(sizes[entry] for entry in live)
            if not sizes or live_bytes < _COMPACT_RATIO * sum(sizes.values()):
                sparse[filename] = live
        if not sparse:
            return result
        stats = self._segment_stats()
        moved: dict[str, dict[bytes, object]] = {}
        mtime_ns = 0
        for filename, live in sparse.items():
            if not live:
                continue  # all duplicates (or unreadable): removal only
            decoded = self._decoded(filename)
            if decoded is None:
                return result  # the index moved under us; the next gc() retries
            for namespace, hexkey in live:
                moved.setdefault(namespace, {})[bytes.fromhex(hexkey)] = decoded[
                    (namespace, hexkey)
                ]
            mtime_ns = max(mtime_ns, stats[filename][1])
        written = [
            self._write_segment(namespace, entries, mtime_ns)
            for namespace, entries in sorted(moved.items())
        ]
        self._unlink(list(sparse))
        new_bytes = sum((self.disk_dir / name).stat().st_size for name in written)
        result["compacted_segments"] = len(sparse)
        result["compacted_entries"] = sum(len(entries) for entries in moved.values())
        result["reclaimed_bytes"] = max(
            0, sum(stats[name][0] for name in sparse) - new_bytes
        )
        for field, value in result.items():
            self._lifecycle[field] += value
        return result

    # ------------------------------------------------------------------
    # Maintenance and introspection
    # ------------------------------------------------------------------
    def clear_memory(self) -> None:
        """Drop the memory tier and decoded segments (disk index stays).

        After this, every lookup pays the disk path again — the
        cold-start-from-disk scenario the benchmark measures.
        """
        with self._lock:
            for tier in self._tiers.values():
                tier.clear()
            self._loaded.clear()

    @property
    def stats(self) -> dict:
        """Per-namespace and total hit/miss/size/byte counters.

        ``memory_bytes`` and ``disk_bytes`` are payload bytes (a float
        counts 8): exact for the live memory tier, and over the indexed
        keys' live copies for the disk tier.
        """
        with self._lock:
            namespaces = {}
            disk_items: dict[str, int] = {}
            disk_bytes: dict[str, int] = {}
            for entry, filename in self._disk_index.items():
                namespace = entry[0]
                disk_items[namespace] = disk_items.get(namespace, 0) + 1
                disk_bytes[namespace] = (
                    disk_bytes.get(namespace, 0) + self._segments[filename][entry]
                )
            for namespace in sorted(set(self._tiers) | set(disk_items)):
                tier = self._tiers.get(namespace)
                memory_bytes = (
                    sum(_payload_bytes(value) for _key, value in tier.items())
                    if tier is not None
                    else 0
                )
                namespaces[namespace] = {
                    "hits": self._hits.get(namespace, 0),
                    "disk_hits": self._disk_hits.get(namespace, 0),
                    "misses": self._misses.get(namespace, 0),
                    "memory_items": len(tier) if tier is not None else 0,
                    "disk_items": disk_items.get(namespace, 0),
                    "memory_bytes": memory_bytes,
                    "disk_bytes": disk_bytes.get(namespace, 0),
                }
            totals = {
                field: sum(ns[field] for ns in namespaces.values())
                for field in (
                    "hits", "disk_hits", "misses", "memory_items", "disk_items",
                    "memory_bytes", "disk_bytes",
                )
            }
            totals["dirty"] = len(self._dirty)
            totals["corrupt_segments"] = self.corrupt_segments
            # Lifecycle stanza: cumulative GC/compaction counters plus
            # the live quota position (actual segment file bytes, which
            # include dead duplicates and npz container overhead the
            # payload accounting above does not).
            disk_file_bytes = self.disk_usage()
            lifecycle = dict(self._lifecycle)
            lifecycle["disk_file_bytes"] = disk_file_bytes
            lifecycle["quota_bytes"] = self.max_bytes
            lifecycle["quota_headroom_bytes"] = (
                self.max_bytes - disk_file_bytes if self.max_bytes is not None else None
            )
            lifecycle["read_only"] = self.read_only
            totals["lifecycle"] = lifecycle
            return {"namespaces": namespaces, "totals": totals}

    def view(self, namespace: str, scope: bytes | str = b"") -> "StoreView":
        """A cache-shaped handle over one namespace (see :class:`StoreView`)."""
        return StoreView(self, namespace, scope)


class StoreView:
    """Cache-shaped handle over one store namespace.

    Every memo in the repository is one of these — the per-pair DTW
    cache, the mask-adjacency cache, the serving result cache.  Owners
    without a shared store view a private memory-only store of their
    own, so one code path serves both per-fit isolation and sharing.

    ``scope`` is mixed into every key: two views with different scopes
    (e.g. two served models caching ``forecast_window`` blocks by the
    same integer start) can never collide.  ``bytes`` keys with an empty
    scope pass through untouched, so globally content-addressed keys
    (DTW pair digests) stay shareable across *all* fits.

    ``clear()`` resets only this view's counters — a view is a window
    onto shared state and must not wipe other fits' artifacts.
    """

    def __init__(self, store: ArtifactStore, namespace: str, scope: bytes | str = b"") -> None:
        self._store = store
        self.namespace = namespace
        self._scope = scope if isinstance(scope, bytes) else scope.encode("utf-8")
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()

    def _map(self, key) -> bytes:
        if isinstance(key, bytes) and not self._scope:
            return key
        return array_key(self._scope, key)

    def __contains__(self, key) -> bool:
        return self._store.contains(self.namespace, self._map(key))

    def get(self, key, default=None):
        # Ambient-trace instrumentation: a traced request (the scheduler
        # scopes its context via use_trace) gets a store.get span with
        # the hit/miss outcome; untraced callers pay one thread-local
        # read.  Timing reads only — the returned value is untouched.
        ctx = current_trace()
        began = time.monotonic() if ctx is not None else 0.0
        mapped = self._map(key)
        value = self._store.get(self.namespace, mapped, _MISSING)
        if ctx is not None:
            record_span(
                "store.get", ctx, began, time.monotonic(),
                namespace=self.namespace, hit=value is not _MISSING,
            )
        with self._lock:
            if value is _MISSING:
                self.misses += 1
                return default
            self.hits += 1
        return value

    def put(self, key, value) -> None:
        ctx = current_trace()
        began = time.monotonic() if ctx is not None else 0.0
        mapped = self._map(key)
        self._store.put(self.namespace, mapped, value)
        if ctx is not None:
            record_span(
                "store.put", ctx, began, time.monotonic(),
                namespace=self.namespace,
            )

    def get_or_compute(self, key, compute):
        mapped = self._map(key)
        computed = []

        def instrumented():
            computed.append(True)
            return compute()

        # One store lookup total: the view's hit/miss is derived from
        # whether the compute hook actually ran, so the store-level
        # counters record exactly one probe per call.
        value = self._store.get_or_compute(self.namespace, mapped, instrumented)
        with self._lock:
            if computed:
                self.misses += 1
            else:
                self.hits += 1
        return value

    def clear(self) -> None:
        with self._lock:
            self.hits = 0
            self.misses = 0

    @property
    def stats(self) -> dict:
        store_stats = self._store.stats["namespaces"].get(self.namespace, {})
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "namespace": self.namespace,
                "store": store_stats,
            }


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
_STORE_COLLECTOR_SOURCE = "artifact_store"


def store_metric_samples(store: ArtifactStore):
    """``repro_store_*`` metric samples for one store.

    The single producer behind every scrape surface: the process obs
    registry (published by :func:`open_store`) and a serving runtime's
    registry (published by ``ServingRuntime.attach_store``) both yield
    from here, so hit/byte counters and lifecycle telemetry stay
    name-identical everywhere.
    """
    stats = store.stats
    for namespace, ns_stats in stats.get("namespaces", {}).items():
        labels = {"namespace": namespace}
        yield ("repro_store_hits_total", labels, float(ns_stats.get("hits", 0)))
        yield ("repro_store_disk_hits_total", labels, float(ns_stats.get("disk_hits", 0)))
        yield ("repro_store_misses_total", labels, float(ns_stats.get("misses", 0)))
        yield ("repro_store_memory_bytes", labels, float(ns_stats.get("memory_bytes", 0)))
        yield ("repro_store_disk_bytes", labels, float(ns_stats.get("disk_bytes", 0)))
    lifecycle = stats.get("totals", {}).get("lifecycle", {})
    for field, name in (
        ("gc_runs", "repro_store_gc_runs_total"),
        ("evicted_segments", "repro_store_evicted_segments_total"),
        ("evicted_entries", "repro_store_evicted_entries_total"),
        ("evicted_bytes", "repro_store_evicted_bytes_total"),
        ("compacted_segments", "repro_store_compacted_segments_total"),
        ("compacted_entries", "repro_store_compacted_entries_total"),
        ("reclaimed_bytes", "repro_store_compaction_reclaimed_bytes_total"),
        ("disk_file_bytes", "repro_store_disk_file_bytes"),
    ):
        yield (name, {}, float(lifecycle.get(field) or 0))
    if lifecycle.get("quota_bytes") is not None:
        yield ("repro_store_quota_bytes", {}, float(lifecycle["quota_bytes"]))
        yield (
            "repro_store_quota_headroom_bytes",
            {},
            float(lifecycle["quota_headroom_bytes"]),
        )


def publish_store(store: ArtifactStore, registry=None) -> None:
    """Publish ``store``'s samples on ``registry`` (default: the process
    one), replacing the store it published before.  The collector is a
    bound method, so one store published on two registries rendered
    together compares equal and renders once."""
    from ..obs.metrics import global_registry

    registry = registry if registry is not None else global_registry()
    registry.register_collector(
        _STORE_COLLECTOR_SOURCE, types.MethodType(store_metric_samples, store)
    )


# ----------------------------------------------------------------------
# Process-wide store: StoreConfig + open_store / active_store
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class StoreConfig:
    """Everything needed to open an :class:`ArtifactStore`.

    The one configuration surface for the store: CLIs build one from
    the shared cache flags (:func:`add_cache_arguments` /
    :func:`store_config_from_args`), programs construct one directly,
    and :meth:`from_env` fills unset fields from ``$REPRO_CACHE_DIR`` /
    ``$REPRO_CACHE_MAX_BYTES`` / ``$REPRO_CACHE_MEMORY_ITEMS``.
    """

    disk_dir: str | Path | None = None
    max_bytes: int | None = None
    memory_items: int | dict | None = None

    @classmethod
    def from_env(cls, **overrides) -> "StoreConfig":
        """Environment-backed config; non-``None`` overrides win."""
        fields: dict = {
            "disk_dir": os.environ.get(CACHE_DIR_ENV) or None,
            "max_bytes": parse_byte_size(os.environ.get(CACHE_MAX_BYTES_ENV) or None),
            "memory_items": (
                int(os.environ[CACHE_MEMORY_ITEMS_ENV])
                if os.environ.get(CACHE_MEMORY_ITEMS_ENV)
                else None
            ),
        }
        fields.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**fields)

    def build(self) -> ArtifactStore:
        """A fresh store with these settings (not installed process-wide)."""
        return ArtifactStore(
            maxsize=self.memory_items,
            disk_dir=self.disk_dir,
            max_bytes=self.max_bytes,
        )


_process_store: ArtifactStore | None = None
_process_lock = threading.Lock()


def open_store(
    config: StoreConfig | None = None, *, store: ArtifactStore | None = None
) -> ArtifactStore:
    """Install the process-wide store (replacing any existing one).

    ``config=None`` opens from the environment
    (:meth:`StoreConfig.from_env`); pass ``store=`` to adopt an
    already-built instance.  Publishes the ``repro_store_*`` collector
    on the process obs registry, so lifecycle telemetry is scrapeable
    wherever metrics are.
    """
    global _process_store
    with _process_lock:
        if store is None:
            store = (config if config is not None else StoreConfig.from_env()).build()
        _process_store = store
        publish_store(store)
        return store


def active_store(flag: bool | None = None) -> ArtifactStore | None:
    """The process-wide store, honouring the three-state opt-in flag.

    ``None`` (default) → the installed store; when none is installed,
    one is opened from the environment only if ``$REPRO_CACHE_DIR``
    opts in, else ``None`` (per-fit isolation).  Truthy → the installed
    store, opening one (memory-only without an environment opt-in) if
    needed — never ``None``.  Falsy-but-not-``None`` → ``None``.
    Truthiness rather than identity, so an accidental ``0`` or ``1``
    forces isolation or sharing as the caller plainly meant.
    """
    if flag is not None and not flag:
        return None
    global _process_store
    with _process_lock:
        if _process_store is None and (flag or os.environ.get(CACHE_DIR_ENV)):
            _process_store = StoreConfig.from_env().build()
            publish_store(_process_store)
        return _process_store


def reset_store() -> None:
    """Drop the process-wide store (tests / benchmark isolation)."""
    global _process_store
    with _process_lock:
        _process_store = None
        try:
            from ..obs.metrics import global_registry

            global_registry().unregister_collector(_STORE_COLLECTOR_SOURCE)
        except Exception:  # noqa: BLE001 — teardown must not raise
            pass


# ----------------------------------------------------------------------
# Shared CLI surface
# ----------------------------------------------------------------------
def add_cache_arguments(parser) -> None:
    """Uniform cache flags for every CLI entry point.

    One helper shared by ``python -m repro.experiments``,
    ``python -m repro.serving`` and ``python -m repro.streaming``;
    every flag is environment-backed so a fleet can be configured once
    via ``$REPRO_CACHE_DIR`` / ``$REPRO_CACHE_MAX_BYTES`` /
    ``$REPRO_CACHE_MEMORY_ITEMS`` and overridden per-invocation.
    """
    group = parser.add_argument_group("artifact cache")
    group.add_argument(
        "--cache-dir",
        default=None,
        help="enable the cross-fit artifact store with a disk tier at this "
        f"directory (default: ${CACHE_DIR_ENV}); DTW pairs, masked "
        "adjacencies and served windows are reused bit-exactly across "
        "fits, runs and processes",
    )
    group.add_argument(
        "--cache-max-bytes",
        default=None,
        type=parse_byte_size,
        metavar="BYTES",
        help="disk-tier byte quota with K/M/G/T suffixes, e.g. 512M "
        f"(default: ${CACHE_MAX_BYTES_ENV}); persist() and gc() evict whole "
        "least-recently-used segments until the tier fits",
    )
    group.add_argument(
        "--cache-memory-items",
        default=None,
        type=int,
        metavar="N",
        help="memory-tier entries kept per namespace "
        f"(default: ${CACHE_MEMORY_ITEMS_ENV}, else built-in per-namespace depths)",
    )


def store_config_from_args(args) -> StoreConfig | None:
    """The parsed cache flags as an env-backed :class:`StoreConfig`.

    ``None`` when neither the flags nor the environment opt into
    anything — callers then keep their default behaviour (no store, or
    a bundle-provided one).
    """
    config = StoreConfig.from_env(
        disk_dir=getattr(args, "cache_dir", None),
        max_bytes=getattr(args, "cache_max_bytes", None),
        memory_items=getattr(args, "cache_memory_items", None),
    )
    if config.disk_dir is None and config.max_bytes is None and config.memory_items is None:
        return None
    return config


def default_store_scope(forecaster) -> bytes | None:
    """Content-addressed scope for one fitted forecaster's cached results.

    Hashes everything a served forecast block depends on: the network
    weights, configuration, scaler, dataset identity and split index
    sets.  A checkpoint restored bitwise in another process (PR 4
    bundles) therefore derives the *same* scope and can serve the warmed
    ``forecast_window`` entries.  Returns ``None`` when the forecaster
    has no snapshotable network (naive baselines), in which case callers
    should fall back to a private cache.
    """
    network = getattr(forecaster, "network", None)
    state_dict = getattr(network, "state_dict", None)
    if network is None or state_dict is None:
        return None
    parts: list = ["forecast-scope/v1", type(forecaster).__name__,
                   getattr(forecaster, "name", "")]
    config = getattr(forecaster, "config", None)
    if config is not None:
        if dataclasses.is_dataclass(config):
            # cache_store is guaranteed metric-neutral (it only selects
            # where artifacts are cached), so it must not partition the
            # scope: a model fit with the store forced on and the same
            # model fit under the env-var opt-in share their windows.
            fields = sorted(
                (f.name, repr(getattr(config, f.name)))
                for f in dataclasses.fields(config)
                if f.name != "cache_store"
            )
            parts.append(repr(fields))
        else:
            parts.append(repr(config))
    dataset = getattr(forecaster, "dataset", None)
    if dataset is not None:
        parts.append(getattr(dataset, "name", ""))
    split = getattr(forecaster, "split", None)
    if split is not None:
        parts.extend([split.observed, split.unobserved])
    scaler = getattr(forecaster, "scaler", None)
    if scaler is not None:
        parts.extend([np.asarray(scaler.mean_), np.asarray(scaler.std_)])
    state = state_dict()
    for key in sorted(state):
        parts.extend([key, state[key]])
    return array_key(*parts)
