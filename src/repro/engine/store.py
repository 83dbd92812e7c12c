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
tier (sharded ``.npz`` segments and a JSON manifest under a cache
directory, typically ``$REPRO_CACHE_DIR``) so artifacts survive across
processes.  Disk writes are atomic (temp file + ``os.replace``) and
loads are corruption-tolerant: an unreadable segment or manifest
degrades to a cache miss, never a crash.

Bit-exactness contract: the store never transforms values.  A hit —
memory or disk — returns exactly the floats the uncached computation
would have produced (ndarray round-trips through ``.npz`` preserve raw
bits, NaN payloads included), so enabling the store cannot change any
fixed-seed metric.

Invalidation is free by construction: keys hash the *content* of every
input that determines the artifact, so changed data or hyper-parameters
simply miss.  Stale entries are only ever evicted (memory LRU) or left
unreferenced on disk; a cache directory can always be deleted wholesale.

Lifecycle (PR 10): the disk tier is no longer append-only.  A byte
quota (``max_bytes`` / ``--cache-max-bytes`` / ``$REPRO_CACHE_MAX_BYTES``)
is enforced at :meth:`ArtifactStore.persist` time and on demand via
:meth:`ArtifactStore.gc`, which first compacts sparse segments (live
payload ratio below ``compact_ratio`` → rewritten dense) and then
evicts whole least-recently-used segments until the tier fits.  The
bit-exact contract survives: a surviving hit is byte-identical, an
evicted entry is a miss that recomputes — never a wrong answer.

Process wiring is a single pair — :func:`open_store` installs a store
built from a :class:`StoreConfig` (environment-backed), and
:func:`active_store` resolves the three-state per-fit opt-in flag.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time
import types
import warnings
import zipfile
from collections import OrderedDict
from pathlib import Path

import numpy as np

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

MANIFEST_NAME = "store-manifest.json"
_FORMAT_VERSION = 1
_MISSING = object()
_SCALAR_KEYS = "__scalar_keys__"
_SCALAR_VALUES = "__scalar_values__"
_NAMESPACE_KEY = "__namespace__"
_ARRAY_PREFIX = "a:"

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
    except ValueError:
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
        an existing directory's manifest and segments are indexed
        immediately so earlier processes' artifacts are visible.
    max_loaded_segments:
        How many disk segments to keep decoded in memory (a segment is
        loaded whole on its first hit — entries written together are
        usually requested together).
    read_only:
        Serve from the disk tier without ever writing back: ``put``
        still populates the memory tier, but nothing is queued for
        ``persist()`` (which becomes a no-op).  The mode for long-lived
        serving workers over a bundle's exported cache — without it,
        every freshly computed block would accumulate in the dirty
        buffer forever, since nothing in the serving path persists.
        Read-only stores refuse :meth:`gc` outright.
    max_bytes:
        Optional disk-tier byte quota.  When set, every ``persist()``
        ends with a :meth:`gc` pass that evicts whole least-recently-
        used segments until the indexed segment files fit the quota.
        Accepts ``parse_byte_size`` strings (``"512M"``).
    compact_ratio:
        Live-payload threshold below which :meth:`gc` rewrites a sparse
        segment dense (``0.5`` → segments less than half live get
        compacted).  ``0`` disables compaction.

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
        max_loaded_segments: int = 8,
        read_only: bool = False,
        max_bytes: int | str | None = None,
        compact_ratio: float = 0.5,
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
        self.max_loaded_segments = max_loaded_segments
        self.read_only = read_only
        self.max_bytes = parse_byte_size(max_bytes)
        self.compact_ratio = float(compact_ratio)
        self._lock = threading.RLock()
        self._tiers: dict[str, LRUCache] = {}
        # Disk index: (namespace, hex key) -> segment filename.
        self._disk_index: dict[tuple[str, str], str] = {}
        # Decoded segments, LRU-bounded: filename -> {(ns, hex): value}.
        self._loaded: OrderedDict[str, dict] = OrderedDict()
        # Entries written since the last persist(): (ns, key) -> value.
        self._dirty: dict[tuple[str, bytes], object] = {}
        # Lifecycle metadata stamped at put() time for dirty entries and
        # recovered from the manifest for disk entries:
        # (ns, hex key) -> {"created_at": float, "bytes": int}.  Absent
        # for entries persisted by pre-metadata writers (old manifests
        # stay readable; their entries just carry no accounting).
        self._entry_meta: dict[tuple[str, str], dict] = {}
        # Last-touched stamps per segment (GC eviction order): updated
        # on every disk hit and persisted into the manifest as the
        # segment's "last_used", so LRU order survives across processes.
        self._segment_touched: dict[str, float] = {}
        self._segment_counter = 0
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
                self._load_disk_index()

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
                # Stamp lifecycle metadata at put() time — persist()
                # writes it into the manifest so later processes can do
                # age/size accounting (GC, quotas) without decoding
                # segments.  First write wins: a re-put of an existing
                # content key is the same artifact, not a new one.
                self._entry_meta.setdefault(
                    (namespace, key.hex()),
                    {"created_at": time.time(), "bytes": _payload_bytes(value)},
                )

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
        segment = self._disk_index.get(entry)
        if segment is None:
            return _MISSING
        decoded = self._loaded.get(segment)
        if decoded is None:
            decoded = self._load_segment(segment)
            if decoded is None:  # corrupt or vanished: index already scrubbed
                return _MISSING
            self._loaded[segment] = decoded
            while len(self._loaded) > self.max_loaded_segments:
                self._loaded.popitem(last=False)
        else:
            self._loaded.move_to_end(segment)
        self._segment_touched[segment] = time.time()
        return decoded.get(entry, _MISSING)

    def _scrub_segment(self, filename: str) -> list[tuple[str, str]]:
        """Forget one segment everywhere it is tracked; returns its entries.

        Index, per-entry metadata, decoded-segment LRU and touch stamps
        all go together — dropping the index alone would leave
        ``stats()`` byte accounting counting entries that can no longer
        be served.
        """
        entries = [e for e, seg in self._disk_index.items() if seg == filename]
        for entry in entries:
            del self._disk_index[entry]
            self._entry_meta.pop(entry, None)
        self._loaded.pop(filename, None)
        self._segment_touched.pop(filename, None)
        return entries

    def _load_segment(self, filename: str):
        """Decode one segment; corruption or disappearance scrubs it."""
        path = self.disk_dir / filename
        try:
            with np.load(path, allow_pickle=False) as archive:
                namespace = None
                if _NAMESPACE_KEY in archive.files:
                    namespace = bytes(archive[_NAMESPACE_KEY]).decode("utf-8")
                decoded: dict[tuple[str, str], object] = {}
                if _SCALAR_KEYS in archive.files:
                    for hexkey, value in zip(
                        archive[_SCALAR_KEYS], archive[_SCALAR_VALUES]
                    ):
                        decoded[(namespace, str(hexkey))] = float(value)
                for member in archive.files:
                    if member.startswith(_ARRAY_PREFIX):
                        decoded[(namespace, member[len(_ARRAY_PREFIX):])] = archive[member]
                return decoded
        except FileNotFoundError:
            # Evicted by another process's gc() between our index build
            # and this read: a plain miss (the caller recomputes), not
            # corruption — no warning, no corrupt_segments bump.
            self._scrub_segment(filename)
            return None
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as error:
            warnings.warn(f"dropping unreadable cache segment {path}: {error}")
            self.corrupt_segments += 1
            self._scrub_segment(filename)
            return None

    def _load_disk_index(self) -> None:
        """Index the manifest (or scan segments when it is unusable)."""
        manifest_path = self.disk_dir / MANIFEST_NAME
        segments: dict[str, list[str]] | None = None
        if manifest_path.exists():
            try:
                manifest = json.loads(manifest_path.read_text())
                if manifest.get("format_version") == _FORMAT_VERSION:
                    segments = {}
                    for name, spec in manifest.get("segments", {}).items():
                        namespace = spec["namespace"]
                        segments[name] = [(namespace, hexkey) for hexkey in spec["keys"]]
                        # Optional per-segment last-touch stamp (GC LRU
                        # order across processes); max-merged so a local
                        # fresher touch is never aged backwards.
                        touched = spec.get("last_used")
                        if isinstance(touched, (int, float)):
                            self._segment_touched[name] = max(
                                self._segment_touched.get(name, 0.0), float(touched)
                            )
                        # Optional per-entry lifecycle metadata (absent
                        # from manifests written before it existed).
                        for hexkey, meta in (spec.get("entries") or {}).items():
                            if isinstance(meta, dict):
                                self._entry_meta.setdefault((namespace, hexkey), meta)
            except (OSError, ValueError, KeyError, TypeError) as error:
                warnings.warn(f"unreadable cache manifest {manifest_path}: {error}")
        if segments is None:
            segments = {}
        # Index every on-disk segment the manifest does not list — it
        # carries its own namespace and keys, so the manifest is an
        # optimisation, not the source of truth.  This covers a missing
        # or corrupt manifest entirely, and heals the race where two
        # processes persist concurrently and the slower writer's
        # read-merge-replace loses the faster one's manifest entries
        # (the segment files themselves are never clobbered).
        for path in sorted(self.disk_dir.glob("seg-*.npz")):
            if path.name in segments:
                continue
            decoded = self._load_segment(path.name)
            if decoded is not None:
                segments[path.name] = list(decoded.keys())
                # A rescued segment carries no manifest metadata; its
                # file mtime is the best available creation stamp.
                try:
                    rescued_at = path.stat().st_mtime
                except OSError:
                    rescued_at = time.time()
                for entry, value in decoded.items():
                    self._entry_meta.setdefault(
                        entry,
                        {"created_at": rescued_at, "bytes": _payload_bytes(value)},
                    )
                self._loaded[path.name] = decoded
                while len(self._loaded) > self.max_loaded_segments:
                    self._loaded.popitem(last=False)
        for filename, entries in segments.items():
            if not (self.disk_dir / filename).exists():
                continue
            for namespace, hexkey in entries:
                self._disk_index[(namespace, hexkey)] = filename

    def refresh_disk_index(self) -> int:
        """Re-index the disk tier to pick up concurrent writers' segments.

        The disk index is built once when the store is created; a store
        that lives while *other processes* persist into the same
        directory (the parallel sweep executor's workers all share one
        ``$REPRO_CACHE_DIR``) will not see their segments until this is
        called.  Cheap when the concurrent-writer manifest merge kept
        the manifest complete (one JSON read); unlisted segments are
        decoded and rescued exactly as at construction time.  Segments
        another process's :meth:`gc` deleted are pruned first — their
        metadata leaves the byte accounting with them.  Returns the net
        change in indexed entries (negative when a concurrent GC
        removed more than new writers added).
        """
        with self._lock:
            if self.disk_dir is None or not self.disk_dir.exists():
                return 0
            before = len(self._disk_index)
            for filename in set(self._disk_index.values()):
                if not (self.disk_dir / filename).exists():
                    self._scrub_segment(filename)
            self._load_disk_index()
            return len(self._disk_index) - before

    def persist(self) -> int:
        """Flush queued entries to new disk segments; returns entry count.

        Atomic per file: segments and the manifest are staged next to
        their final name and ``os.replace``d, so a crashed writer leaves
        at worst a ``.tmp`` straggler, never a half-written archive.
        Concurrent writers from other processes are tolerated: the
        manifest is re-read and their segment entries carried over, and
        even when two overlapping persists race the read-merge-replace
        (last replace wins), nothing is lost — segment files are never
        clobbered, and ``_load_disk_index`` re-indexes any on-disk
        segment the manifest fails to mention.  No-op without a disk
        tier, in ``read_only`` mode, or with nothing dirty.

        When ``max_bytes`` is configured, persisting ends with a
        :meth:`gc` pass so the tier never outgrows its quota between
        explicit collections.
        """
        with self._lock:
            if self.disk_dir is None:
                return 0
            if not self._dirty:
                # Nothing to flush, but a quota-bearing store still owes
                # the tier an enforcement pass: an earlier unbounded
                # writer may have left it over budget.
                if self.max_bytes is not None and not self.read_only:
                    self.gc()
                return 0
            self.disk_dir.mkdir(parents=True, exist_ok=True)
            by_namespace: dict[str, dict[bytes, object]] = {}
            for (namespace, key), value in self._dirty.items():
                by_namespace.setdefault(namespace, {})[key] = value
            written = 0
            new_segments: dict[str, dict] = {}
            for namespace, entries in sorted(by_namespace.items()):
                filename, spec = self._write_segment_file(namespace, entries)
                new_segments[filename] = spec
                written += len(entries)
            self._write_manifest(new_segments)
            self._dirty.clear()
            if self.max_bytes is not None and not self.read_only:
                self.gc()
            return written

    def _write_segment_file(
        self, namespace: str, entries: dict[bytes, object]
    ) -> tuple[str, dict]:
        """Stage-and-replace one ``.npz`` segment; index its entries.

        Returns ``(filename, manifest_spec)``.  Shared by ``persist()``
        (dirty entries) and compaction (live entries rewritten dense);
        the spec carries each entry's put()-time metadata so created_at
        stamps survive rewrites.
        """
        filename = self._next_segment_name(namespace)
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
        os.replace(staging, self.disk_dir / filename)
        hexkeys = [key.hex() for key in entries]
        now = time.time()
        spec = {
            "namespace": namespace,
            "keys": hexkeys,
            # Freshly written counts as freshly used for LRU purposes.
            "last_used": now,
            # Per-entry lifecycle metadata (created_at + payload
            # bytes), stamped at put() time.  Readers that
            # predate it ignore the extra field, so the format
            # version stays 1.
            "entries": {
                hexkey: self._entry_meta[(namespace, hexkey)]
                for hexkey in hexkeys
                if (namespace, hexkey) in self._entry_meta
            },
        }
        self._segment_touched[filename] = now
        for hexkey in hexkeys:
            self._disk_index[(namespace, hexkey)] = filename
        return filename, spec

    def _next_segment_name(self, namespace: str) -> str:
        slug = "".join(c if c.isalnum() or c in "-_" else "_" for c in namespace)
        while True:
            self._segment_counter += 1
            name = f"seg-{os.getpid()}-{self._segment_counter:06d}-{slug}.npz"
            if not (self.disk_dir / name).exists():
                return name

    def _write_manifest(
        self, new_segments: dict[str, dict], drop: set | frozenset = frozenset()
    ) -> None:
        manifest_path = self.disk_dir / MANIFEST_NAME
        segments: dict[str, dict] = {}
        if manifest_path.exists():  # merge concurrent writers' entries
            try:
                existing = json.loads(manifest_path.read_text())
                if existing.get("format_version") == _FORMAT_VERSION:
                    segments = {
                        name: spec
                        for name, spec in existing.get("segments", {}).items()
                        if name not in drop and (self.disk_dir / name).exists()
                    }
            except (OSError, ValueError, KeyError, TypeError):
                pass  # rebuilt below from what we know
        # Re-record every indexed entry whose segment the on-disk
        # manifest no longer (fully) lists — per segment, merging keys,
        # so a rescued multi-key segment is written back whole.  Only
        # segments whose file still exists: re-recording one a
        # concurrent gc() just deleted would resurrect a ghost that
        # every later reader pays a failed open() for.
        known = {name: set(spec["keys"]) for name, spec in segments.items()}
        alive: dict[str, bool] = {}
        for (namespace, hexkey), filename in self._disk_index.items():
            if filename in new_segments or filename in drop:
                continue
            if filename not in known:
                exists = alive.get(filename)
                if exists is None:
                    exists = alive[filename] = (self.disk_dir / filename).exists()
                if not exists:
                    continue
            spec = segments.setdefault(filename, {"namespace": namespace, "keys": []})
            keys = known.setdefault(filename, set())
            if hexkey not in keys:
                keys.add(hexkey)
                spec["keys"].append(hexkey)
                meta = self._entry_meta.get((namespace, hexkey))
                if meta is not None:
                    spec.setdefault("entries", {})[hexkey] = meta
        # Carry our freshest touch stamps into every surviving spec so
        # cross-process LRU order reflects actual use, not write time.
        for name, spec in segments.items():
            touched = self._segment_touched.get(name)
            if touched is not None and touched > float(spec.get("last_used") or 0.0):
                spec["last_used"] = touched
        segments.update(new_segments)
        manifest = {"format_version": _FORMAT_VERSION, "segments": segments}
        staging = manifest_path.with_suffix(".json.tmp")
        staging.write_text(json.dumps(manifest) + "\n")
        os.replace(staging, manifest_path)

    def export(self, directory: str | Path) -> int:
        """Write the store's *entire* contents as a fresh disk tier.

        Used to embed warmed cache contents in serving bundles: the
        target directory gets its own segments + manifest, readable by
        ``ArtifactStore(disk_dir=...)`` in any later process.  Returns
        the number of entries exported.
        """
        target = ArtifactStore(disk_dir=directory)
        with self._lock:
            for namespace, tier in self._tiers.items():
                for key, value in tier.items():
                    target.put(namespace, key, value)
            for (namespace, hexkey), _segment in list(self._disk_index.items()):
                key = bytes.fromhex(hexkey)
                value = self._disk_get(namespace, key)
                if value is not _MISSING:
                    target.put(namespace, key, value)
        return target.persist()

    # ------------------------------------------------------------------
    # Lifecycle: compaction + quota-bounded GC
    # ------------------------------------------------------------------
    def disk_usage(self) -> int:
        """Actual on-disk bytes of indexed segment files (the quota unit)."""
        with self._lock:
            return sum(self._segment_sizes().values())

    def _segment_sizes(self) -> dict[str, int]:
        """File sizes of every indexed segment (missing files count 0)."""
        sizes: dict[str, int] = {}
        if self.disk_dir is None:
            return sizes
        for filename in set(self._disk_index.values()):
            try:
                sizes[filename] = (self.disk_dir / filename).stat().st_size
            except OSError:
                sizes[filename] = 0
        return sizes

    def _entries_by_segment(self) -> dict[str, list[tuple[str, str]]]:
        grouped: dict[str, list[tuple[str, str]]] = {}
        for entry, filename in self._disk_index.items():
            grouped.setdefault(filename, []).append(entry)
        return grouped

    def _segment_rank(self, filename: str, entries: list[tuple[str, str]]) -> float:
        """Eviction order key: last-touched, else newest created_at, else mtime."""
        touched = self._segment_touched.get(filename)
        if touched is not None:
            return touched
        stamps = [
            float((self._entry_meta.get(entry) or {}).get("created_at") or 0.0)
            for entry in entries
        ]
        best = max(stamps, default=0.0)
        if best:
            return best
        try:
            return (self.disk_dir / filename).stat().st_mtime
        except OSError:
            return 0.0

    def gc(self, target_bytes: int | None = None) -> dict:
        """Bound the disk tier: compact sparse segments, then evict cold ones.

        ``target_bytes`` defaults to the configured quota
        (``max_bytes``); with neither set only compaction runs.
        Eviction removes whole segments, coldest first (last-touched
        stamps, falling back to manifest ``created_at``, then file
        mtime), until the indexed segment files fit the target.  Each
        removal is atomic — the file is unlinked and the manifest
        rewritten via tmp + ``os.replace`` — and concurrent-reader
        safe: a reader holding a stale index sees a plain miss and
        recomputes, never a partial or wrong value.  Only segments this
        store has indexed are touched, so a concurrent writer's
        fresh, not-yet-indexed segments are never collected.

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
            before = sum(self._segment_sizes().values())
            summary["disk_bytes_before"] = before
            if self.compact_ratio > 0:
                compacted = self._compact_locked(self.compact_ratio)
                summary.update(compacted)
            target = summary["target_bytes"]
            if target is not None:
                summary.update(self._evict_locked(int(target)))
            summary["disk_bytes_after"] = sum(self._segment_sizes().values())
            self._lifecycle["gc_runs"] += 1
            return summary

    def _evict_locked(self, target: int) -> dict:
        """Unlink cold indexed segments until the tier fits ``target``."""
        grouped = self._entries_by_segment()
        sizes = self._segment_sizes()
        total = sum(sizes.values())
        evicted_segments = evicted_entries = evicted_bytes = 0
        dropped: set[str] = set()
        order = sorted(
            sizes, key=lambda name: (self._segment_rank(name, grouped[name]), name)
        )
        for filename in order:
            if total <= target:
                break
            entries = self._scrub_segment(filename)
            try:
                (self.disk_dir / filename).unlink()
            except OSError:
                pass  # already gone (concurrent gc) — scrub still counts
            total -= sizes[filename]
            evicted_segments += 1
            evicted_entries += len(entries)
            evicted_bytes += sizes[filename]
            dropped.add(filename)
        if dropped:
            self._write_manifest({}, drop=dropped)
            self._lifecycle["evicted_segments"] += evicted_segments
            self._lifecycle["evicted_entries"] += evicted_entries
            self._lifecycle["evicted_bytes"] += evicted_bytes
        return {
            "evicted_segments": evicted_segments,
            "evicted_entries": evicted_entries,
            "evicted_bytes": evicted_bytes,
        }

    def _compact_locked(self, min_live_ratio: float) -> dict:
        """Rewrite sparse segments dense (live entries only, bit-exact).

        A segment is sparse when the payload bytes of its *live* entries
        (the ones this store's index still maps to it) fall below
        ``min_live_ratio`` of the payload bytes the manifest records for
        it — duplicates superseded by other segments are the dead
        weight.  The ratio falls back to entry counts when metadata is
        missing.  New dense segments are written and indexed *before*
        the sparse sources are unlinked, so a crash mid-compaction
        leaves duplicates, never losses.  A segment any of whose
        recorded keys this store has never indexed is left alone — its
        liveness is unknowable (it may be a concurrent writer's fresh
        persist, newer than our index).  Conversely a segment whose
        *every* key is indexed in some other segment is safely
        removable even with zero live entries: content addressing
        guarantees the surviving copies are bit-identical.
        """
        result = {"compacted_segments": 0, "compacted_entries": 0, "reclaimed_bytes": 0}
        manifest_path = self.disk_dir / MANIFEST_NAME
        recorded: dict[str, dict] = {}
        try:
            manifest = json.loads(manifest_path.read_text())
            if manifest.get("format_version") == _FORMAT_VERSION:
                recorded = manifest.get("segments", {})
        except (OSError, ValueError, KeyError, TypeError):
            return result  # no manifest, no dead-entry knowledge
        grouped = self._entries_by_segment()
        sparse: list[str] = []
        for filename, spec in recorded.items():
            namespace = spec.get("namespace")
            keys = spec.get("keys") or []
            if not keys or any((namespace, hexkey) not in self._disk_index for hexkey in keys):
                continue  # unknown liveness — hands off
            live = grouped.get(filename, [])
            if len(live) >= len(keys):
                continue  # fully live — dense already
            total_b = live_b = 0.0
            have_meta = True
            for hexkey in keys:
                meta = self._entry_meta.get((namespace, hexkey))
                if meta is None:
                    have_meta = False
                    break
                total_b += float(meta.get("bytes") or 0.0)
            if have_meta and total_b > 0:
                for entry in live:
                    live_b += float((self._entry_meta.get(entry) or {}).get("bytes") or 0.0)
                ratio = live_b / total_b
            else:
                ratio = len(live) / len(keys)
            if ratio < min_live_ratio:
                sparse.append(filename)
        if not sparse:
            return result
        # Stat the sources directly: a fully-dead segment is not in the
        # index, so _segment_sizes() would not account for it.
        sizes: dict[str, int] = {}
        for filename in sparse:
            try:
                sizes[filename] = (self.disk_dir / filename).stat().st_size
            except OSError:
                sizes[filename] = 0
        moved: dict[str, dict[bytes, object]] = {}
        compacted: list[str] = []
        stamp = 0.0
        for filename in sparse:
            live = grouped.get(filename, [])
            if live:  # fully-dead segments need no decode — just removal
                decoded = self._loaded.get(filename)
                if decoded is None:
                    decoded = self._load_segment(filename)
                if decoded is None:
                    continue  # corrupt/vanished: already scrubbed
                for entry in live:
                    if entry not in decoded or self._disk_index.get(entry) != filename:
                        continue
                    namespace, hexkey = entry
                    moved.setdefault(namespace, {})[bytes.fromhex(hexkey)] = decoded[entry]
                stamp = max(stamp, self._segment_rank(filename, live))
            compacted.append(filename)
        if not compacted:
            return result
        new_segments: dict[str, dict] = {}
        for namespace, entries in sorted(moved.items()):
            filename, spec = self._write_segment_file(namespace, entries)
            # Compaction is maintenance, not use: the dense segment
            # inherits its sources' coldness instead of jumping to the
            # front of the LRU order.
            if stamp:
                spec["last_used"] = stamp
                self._segment_touched[filename] = stamp
            new_segments[filename] = spec
            result["compacted_entries"] += len(entries)
        reclaimed = 0
        for filename in compacted:
            self._loaded.pop(filename, None)
            self._segment_touched.pop(filename, None)
            try:
                (self.disk_dir / filename).unlink()
            except OSError:
                pass
            reclaimed += sizes.get(filename, 0)
        new_files = {
            name: (self.disk_dir / name).stat().st_size for name in new_segments
        }
        self._write_manifest(new_segments, drop=set(compacted))
        result["compacted_segments"] = len(compacted)
        result["reclaimed_bytes"] = max(0, reclaimed - sum(new_files.values()))
        self._lifecycle["compacted_segments"] += result["compacted_segments"]
        self._lifecycle["compacted_entries"] += result["compacted_entries"]
        self._lifecycle["reclaimed_bytes"] += result["reclaimed_bytes"]
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

        ``memory_bytes`` is exact (computed from the live memory tier);
        ``disk_bytes`` sums the manifest's per-entry metadata and
        therefore under-counts directories written by pre-metadata
        versions (their entries carry no size records).
        """
        with self._lock:
            namespaces = {}
            disk_items: dict[str, int] = {}
            disk_bytes: dict[str, int] = {}
            for namespace, hexkey in self._disk_index:
                disk_items[namespace] = disk_items.get(namespace, 0) + 1
                meta = self._entry_meta.get((namespace, hexkey))
                if meta is not None:
                    disk_bytes[namespace] = (
                        disk_bytes.get(namespace, 0) + int(meta.get("bytes") or 0)
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
            # the live quota position (actual indexed file bytes, which
            # include npz container overhead the per-entry payload
            # accounting above does not).
            disk_file_bytes = sum(self._segment_sizes().values())
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
    max_loaded_segments: int = 8
    read_only: bool = False
    compact_ratio: float = 0.5

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
            max_loaded_segments=self.max_loaded_segments,
            read_only=self.read_only,
            max_bytes=self.max_bytes,
            compact_ratio=self.compact_ratio,
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
