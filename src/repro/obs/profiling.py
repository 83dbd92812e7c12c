"""Opt-in profiling hooks: the ``REPRO_OBS`` switch and backend op counting.

Profiling is **off by default** and costs nothing until enabled:

* ``REPRO_OBS=1`` in the environment (read once, cached) or an explicit
  :func:`set_obs_enabled` call flips the process into observability
  mode: the trace recorder starts enabled, the :class:`~repro.engine
  .trainer.Trainer` collects per-epoch/per-phase timings, and array
  backends are wrapped in an op-counting proxy.
* :func:`instrument_backend` wraps a
  :class:`~repro.backend.NumpyRefBackend` so every op call
  increments ``repro_backend_ops_total{backend=...,op=...}`` in the
  global registry.  The proxy forwards attributes verbatim and caches
  one counting wrapper per method, so the per-op overhead is one
  counter increment; results pass through untouched (op counting can
  never change a computed byte).

The switch is deliberately coarse — one env var, not per-subsystem
flags — because the acceptance contract is a single number: full
observability on vs off must cost <= 5% serving throughput
(``benchmarks/bench_obs.py`` gates it).
"""

from __future__ import annotations

import os
import threading
from typing import Callable

from .metrics import global_registry

__all__ = [
    "CountingBackend",
    "instrument_backend",
    "maybe_instrument_backend",
    "obs_enabled",
    "set_obs_enabled",
]

ENV_VAR = "REPRO_OBS"
_TRUTHY = ("1", "true", "yes", "on")

_enabled: bool | None = None
_enabled_lock = threading.Lock()


def obs_enabled() -> bool:
    """Whether observability mode is on (env read once, override wins)."""
    global _enabled
    if _enabled is None:
        with _enabled_lock:
            if _enabled is None:
                _enabled = os.environ.get(ENV_VAR, "").strip().lower() in _TRUTHY
    return _enabled


def set_obs_enabled(enabled: bool | None) -> None:
    """Force observability mode on/off (``None`` re-reads the env var).

    Also flips the process trace recorder so one call switches the
    whole observability surface consistently (tests and the overhead
    benchmark toggle through here).
    """
    global _enabled
    with _enabled_lock:
        _enabled = None if enabled is None else bool(enabled)
    from .trace import get_recorder  # local: avoid cycle at import

    get_recorder().enable(obs_enabled())


class CountingBackend:
    """Attribute-forwarding proxy that counts backend op calls.

    Wraps every callable attribute on first access (cached); calls
    increment one :class:`~repro.obs.metrics.Counter` child and forward
    unchanged.  Non-callable attributes (``name``) pass straight
    through.
    """

    def __init__(self, backend) -> None:
        # Direct __dict__ writes: __setattr__ is not overridden, but
        # keeping the proxy's own state out of __getattr__'s way.
        self._obs_backend = backend
        self._obs_wrappers: dict[str, Callable] = {}
        self._obs_counter = global_registry().counter(
            "repro_backend_ops_total",
            "Array-backend primitive calls (REPRO_OBS=1 op profiling)",
            ("backend", "op"),
        )

    @property
    def __wrapped__(self):
        return self._obs_backend

    def __getattr__(self, name: str):
        value = getattr(self._obs_backend, name)
        if not callable(value):
            return value
        wrapper = self._obs_wrappers.get(name)
        if wrapper is None:
            child = self._obs_counter.labels(
                backend=getattr(self._obs_backend, "name", "?"), op=name
            )

            def wrapper(*args, _fn=value, _child=child, **kwargs):
                _child.inc()
                return _fn(*args, **kwargs)

            self._obs_wrappers[name] = wrapper
        return wrapper

    def __repr__(self) -> str:
        return f"CountingBackend({self._obs_backend!r})"


def instrument_backend(backend):
    """Wrap ``backend`` in a :class:`CountingBackend` (idempotent)."""
    if isinstance(backend, CountingBackend):
        return backend
    return CountingBackend(backend)


def maybe_instrument_backend(backend):
    """Wrap only when observability mode is on (the registry hook)."""
    if obs_enabled():
        return instrument_backend(backend)
    return backend
