"""Checkpoint bundles and the multi-worker serving launcher.

**Bundle** — a directory a server can boot from with no training:
one ``.npz`` per model (PR 2's :func:`~repro.core.save_forecaster`
format) plus a ``manifest.json`` recording, per model key, the synthetic
dataset recipe (name / sensors / days / seed — enough to rebuild the
exact data context deterministically), the spatial split's index sets,
and optional warm-up window starts.  :func:`save_bundle` writes one from
fitted models; :func:`load_bundle` restores every forecaster.  A bundle
may additionally carry a ``cache/`` directory — an exported
:class:`~repro.engine.ArtifactStore` disk tier holding the DTW pairs
and warmed ``forecast_window`` blocks from training time — in which
case every worker boots with a hot result cache: warm-up windows are
served from the store instead of recomputed, and the content-addressed
scopes guarantee the served bytes equal the training-process bytes.

**Launcher** — ``python -m repro.serving serve --checkpoint-dir D
--workers N``: each worker process loads the bundle, registers every
model in its own :class:`~repro.serving.ServingRuntime`, warms the
result caches through the real scheduler path, binds the shared public
port with ``SO_REUSEPORT`` (the kernel load-balances accepted
connections across workers) plus a private per-worker **control port**
(stats / batch-log introspection that must target one specific worker),
writes a ``worker-<i>.json`` state file, and only then reports ready.
On ``SIGTERM``/``SIGINT`` a worker drains gracefully: stop accepting,
barrier on every accepted request, then shut the runtime down.

Platforms without ``SO_REUSEPORT`` fall back to one process whose
thread-per-connection server already serves N concurrent connections
on N threads.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import socket
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ...engine import ArtifactStore
from ..runtime import ServingRuntime
from ..service import ForecastService
from .http_server import DEFAULT_MAX_BODY_BYTES, ForecastHTTPServer

__all__ = [
    "BundleEntry",
    "ServeConfig",
    "bundle_cache_dir",
    "load_bundle",
    "run_worker",
    "launch",
    "save_bundle",
    "reuse_port_supported",
]

BUNDLE_MANIFEST_FILE = "manifest.json"
_MANIFEST_VERSION = 1
_CACHE_SUBDIR = "cache"


def reuse_port_supported() -> bool:
    """Whether this platform can kernel-balance one port across processes."""
    return hasattr(socket, "SO_REUSEPORT")


# ----------------------------------------------------------------------
# Bundle persistence
# ----------------------------------------------------------------------
@dataclass
class BundleEntry:
    """One model's slot in a serving bundle.

    ``dataset`` is the synthetic-recipe dict (``name`` plus the
    ``num_sensors`` / ``num_days`` / ``seed`` overrides) that rebuilds
    the forecaster's data context bit-identically on load.
    """

    forecaster: object  # fitted STSMForecaster (carries .split context)
    dataset: dict
    warmup_starts: list[int] = field(default_factory=list)


def _slug(key: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in key)


def save_bundle(
    directory: str | Path,
    entries: dict[str, BundleEntry],
    store: ArtifactStore | None = None,
) -> Path:
    """Write a servable checkpoint bundle for ``entries``.

    ``store`` additionally exports the artifact store's full contents —
    DTW pairs, mask adjacencies and (most usefully) warmed
    ``forecast_window`` blocks — into the bundle's ``cache/`` directory,
    so servers booting from the bundle start hot.
    """
    from ...core import save_forecaster  # local import: core pulls the full model stack

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"format_version": _MANIFEST_VERSION, "models": {}}
    if store is not None:
        exported = store.export(directory / _CACHE_SUBDIR)
        manifest["cache"] = {"dir": _CACHE_SUBDIR, "entries": exported}
    slugs: dict[str, str] = {}
    for key, entry in sorted(entries.items()):
        if "name" not in entry.dataset:
            raise ValueError(f"bundle entry {key!r} needs a dataset 'name'")
        checkpoint = f"{_slug(key)}.npz"
        if checkpoint in slugs:
            raise ValueError(
                f"model keys {slugs[checkpoint]!r} and {key!r} both map to "
                f"checkpoint file {checkpoint!r}; rename one"
            )
        slugs[checkpoint] = key
        save_forecaster(entry.forecaster, directory / checkpoint)
        split = entry.forecaster.split
        manifest["models"][key] = {
            "checkpoint": checkpoint,
            "dataset": dict(entry.dataset),
            "split": {
                "train": [int(i) for i in split.train],
                "validation": [int(i) for i in split.validation],
                "test": [int(i) for i in split.test],
                "name": split.name,
            },
            "warmup_starts": [int(s) for s in entry.warmup_starts],
        }
    path = directory / BUNDLE_MANIFEST_FILE
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def load_bundle(directory: str | Path) -> dict[str, tuple[object, list[int]]]:
    """Restore every model in a bundle: ``{key: (forecaster, warmup)}``."""
    from ...core import load_forecaster
    from ...data.splits import SpaceSplit
    from ...data.synthetic import make_dataset

    directory = Path(directory)
    path = directory / BUNDLE_MANIFEST_FILE
    if not path.exists():
        raise FileNotFoundError(f"no {BUNDLE_MANIFEST_FILE} in {directory}")
    manifest = json.loads(path.read_text())
    if manifest.get("format_version") != _MANIFEST_VERSION:
        raise ValueError(
            f"unsupported bundle format {manifest.get('format_version')!r}"
        )
    models: dict[str, tuple[object, list[int]]] = {}
    for key, spec in manifest["models"].items():
        recipe = dict(spec["dataset"])
        dataset = make_dataset(
            recipe.pop("name"),
            num_sensors=recipe.pop("num_sensors", None),
            num_days=recipe.pop("num_days", None),
            seed=recipe.pop("seed", None),
        )
        if recipe:
            raise ValueError(f"unknown dataset recipe fields for {key!r}: {recipe}")
        split = SpaceSplit(
            train=np.asarray(spec["split"]["train"], dtype=int),
            validation=np.asarray(spec["split"]["validation"], dtype=int),
            test=np.asarray(spec["split"]["test"], dtype=int),
            name=spec["split"].get("name", ""),
        )
        forecaster = load_forecaster(directory / spec["checkpoint"], dataset, split)
        models[key] = (forecaster, [int(s) for s in spec.get("warmup_starts", [])])
    return models


def bundle_cache_dir(directory: str | Path) -> Path | None:
    """The bundle's exported artifact-store directory, if it has one.

    Tolerant by design: a missing or unreadable manifest falls back to
    probing the conventional ``cache/`` subdirectory, and a manifest
    pointing at a directory that no longer exists reads as "no cache" —
    a bundle must stay servable (cold) even if its cache was deleted.
    """
    directory = Path(directory)
    candidate = directory / _CACHE_SUBDIR
    try:
        manifest = json.loads((directory / BUNDLE_MANIFEST_FILE).read_text())
        configured = manifest.get("cache", {}).get("dir")
        if configured:
            candidate = directory / configured
    except (OSError, ValueError, AttributeError):
        pass
    return candidate if candidate.is_dir() else None


# ----------------------------------------------------------------------
# Launcher
# ----------------------------------------------------------------------
@dataclass
class ServeConfig:
    """Everything one worker (or the whole fleet) needs to serve."""

    checkpoint_dir: str
    host: str = "127.0.0.1"
    port: int = 8080
    workers: int = 1
    max_batch: int = 64
    max_queue: int = 1024
    admission: str = "block"
    cache_size: int = 1024
    log_batches: bool = True
    warm_up: bool = True
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
    drain_timeout_s: float = 30.0
    #: Where ``worker-<i>.json`` state files go (default: checkpoint_dir).
    state_dir: str | None = None
    #: Artifact-store overrides (the shared ``--cache-*`` flag surface).
    #: ``cache_dir`` points workers at a disk tier other than the
    #: bundle's own ``cache/``; ``cache_memory_items`` bounds the
    #: memory tier.  Either way the store opens read-only — a serving
    #: worker must never mutate (or GC) a tier it does not own.
    cache_dir: str | None = None
    cache_memory_items: int | None = None

    def resolved_state_dir(self) -> Path:
        return Path(self.state_dir) if self.state_dir else Path(self.checkpoint_dir)


def _build_runtime(config: ServeConfig) -> tuple[ServingRuntime, dict[str, list[int]]]:
    """Load the bundle and host every model; returns (runtime, warmups).

    A bundle carrying an exported artifact store boots hot: each model's
    result cache is a scoped view over the store, so warm-up (and live
    traffic for previously served windows) hits disk-persisted blocks
    instead of recomputing them.  The scope is derived from the restored
    model's content — bitwise identical to the training process's — so
    hits are exactly the bytes that process computed.
    """
    bundle = load_bundle(config.checkpoint_dir)
    cache_dir = (
        config.cache_dir
        if config.cache_dir is not None
        else bundle_cache_dir(config.checkpoint_dir)
    )
    # read_only: a serving worker must neither mutate the shared bundle
    # nor accumulate an ever-growing dirty buffer it never persists —
    # and a read-only store refuses gc() outright, so no quota can ever
    # reap a tier some other process owns.
    store = (
        ArtifactStore(
            maxsize=config.cache_memory_items,
            disk_dir=cache_dir,
            read_only=True,
        )
        if cache_dir is not None
        else None
    )
    runtime = ServingRuntime(
        max_batch=config.max_batch,
        max_queue=config.max_queue,
        admission=config.admission,
        cache_size=config.cache_size,
        log_batches=config.log_batches,
    )
    if store is not None:
        # Cache telemetry on /v1/stats: the bundle store's per-namespace
        # entry/byte/hit counters ride along with serving stats.
        runtime.attach_store(store)
    warmups = {}
    for key, (forecaster, warmup_starts) in bundle.items():
        # Without a bundle store, or for a model with no derivable
        # content scope, the service serves from a private cache — a
        # bundle must stay servable in every case.
        service = ForecastService(
            forecaster,
            cache_size=config.cache_size,
            max_batch_size=config.max_batch,
            log_batches=config.log_batches,
            store=store,
        )
        runtime.register(key, service)
        warmups[key] = warmup_starts
    return runtime, warmups


def run_worker(
    config: ServeConfig,
    index: int = 0,
    *,
    reuse_port: bool | None = None,
    stop_event: threading.Event | None = None,
) -> int:
    """Boot one worker and serve until SIGTERM/SIGINT (or ``stop_event``).

    Startup order is the readiness contract: bind (kernel can already
    balance to us, but we answer 503), warm every model through its own
    scheduler, write the state file, *then* flip ready.  Shutdown is the
    graceful drain: close the listeners, barrier on accepted requests,
    shut the runtime down.
    """
    if reuse_port is None:
        reuse_port = config.workers > 1 and reuse_port_supported()
    label = f"worker-{index}"
    runtime, warmups = _build_runtime(config)
    server = ForecastHTTPServer(
        runtime,
        config.host,
        config.port,
        max_body_bytes=config.max_body_bytes,
        reuse_port=reuse_port,
        worker_label=label,
    )
    # Private per-worker port: stats/batch-log introspection that must
    # reach *this* worker, not whichever one the kernel picks next.  Same
    # runtime and worker label as the public listener, so both count into
    # one transport series and its /v1/stats reports the worker's real
    # traffic.
    control = ForecastHTTPServer(
        runtime, config.host, 0,
        max_body_bytes=config.max_body_bytes, worker_label=label,
    )
    stop = stop_event if stop_event is not None else threading.Event()
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda *_args: stop.set())

    state_path = config.resolved_state_dir() / f"{label}.json"
    try:
        server.start()
        control.start()
        if config.warm_up:
            for key, starts in warmups.items():
                if starts:
                    runtime.warm_up(key, np.asarray(starts, dtype=int))
        # Publish the state file first (atomically: a poller must never
        # see a half-written JSON), then flip ready — the documented
        # startup contract: bind -> warm -> state file -> ready.
        state_path.parent.mkdir(parents=True, exist_ok=True)
        staging = state_path.with_suffix(".json.tmp")
        staging.write_text(json.dumps({
            "worker": label,
            "pid": os.getpid(),
            "host": server.host,
            "port": server.port,
            "control_port": control.port,
            "models": runtime.models,
            "ready": True,
        }, indent=2) + "\n")
        os.replace(staging, state_path)
        server.set_ready()
        control.set_ready()
        stop.wait()
        return 0
    finally:
        server.shutdown()
        control.shutdown()
        runtime.drain(timeout=config.drain_timeout_s)
        runtime.shutdown()
        state_path.unlink(missing_ok=True)


def _worker_entry(config_fields: dict, index: int) -> None:
    """Spawn-safe child entry point (module-level for pickling)."""
    raise SystemExit(run_worker(ServeConfig(**config_fields), index))


def _pick_free_port(host: str) -> int:
    """Reserve an ephemeral port number for a multi-worker fleet.

    The probe socket closes before workers bind, so the number can in
    principle be stolen in between — acceptable for benchmarks and
    tests, which is the only place ``port=0`` plus ``workers>1`` makes
    sense (production fleets pin a port).
    """
    with socket.socket() as probe:
        probe.bind((host, 0))
        return probe.getsockname()[1]


def launch(config: ServeConfig) -> int:
    """Serve with ``config.workers`` processes (or in-process fallback).

    Multi-worker mode spawns fresh interpreter children (no inherited
    locks or threads), each running :func:`run_worker` against the same
    bundle and shared ``SO_REUSEPORT`` port.  The parent forwards
    SIGTERM/SIGINT and reaps.  Returns a process exit code.
    """
    if config.workers < 1:
        raise ValueError(f"workers must be >= 1, got {config.workers}")
    if config.workers == 1 or not reuse_port_supported():
        if config.workers > 1:
            print(
                f"[serving] SO_REUSEPORT unavailable on this platform; "
                f"falling back to 1 process with per-connection threads"
            )
        return run_worker(config, 0)

    import multiprocessing as mp

    if config.port == 0:
        config = dataclasses.replace(config, port=_pick_free_port(config.host))
    context = mp.get_context("spawn")
    fields = dataclasses.asdict(config)
    processes = [
        context.Process(target=_worker_entry, args=(fields, index), daemon=False)
        for index in range(config.workers)
    ]
    for process in processes:
        process.start()

    def _forward(signum, _frame):
        for process in processes:
            if process.is_alive():
                process.terminate()  # SIGTERM -> child's graceful drain

    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, _forward)
    exit_code = 0
    try:
        for process in processes:
            process.join()
            exit_code = exit_code or (process.exitcode or 0)
    finally:
        for process in processes:
            if process.is_alive():
                process.terminate()
    return exit_code
