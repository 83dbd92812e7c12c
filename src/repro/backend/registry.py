"""Backend registry: naming, selection, and the process-wide active backend.

Selection precedence (first hit wins):

1. an explicit :func:`set_backend` / :func:`use_backend` call;
2. the ``REPRO_BACKEND`` environment variable, read once on first use;
3. the default, ``numpy_ref``.

``STSMConfig.backend`` threads a per-model choice through the same
mechanism — :class:`~repro.core.model.STSMForecaster` wraps its fit and
predict paths in :func:`use_backend`, resolving device/dtype overrides
through :func:`resolve_backend`.

Optional backends (currently ``torch``) register lazily: the name appears
in :func:`available_backends` only when the library is importable, so
``import repro.backend`` keeps working on machines without it.  Unknown or
uninstalled names raise :class:`UnknownBackendError` /
:class:`BackendUnavailableError` with the full list of registered and
known-optional backends plus an install hint.
"""

from __future__ import annotations

import contextlib
import importlib.util
import os
import threading
from typing import Callable, Iterator

from ..obs.profiling import maybe_instrument_backend
from .base import ArrayBackend
from .numpy_ref import NumpyRefBackend

__all__ = [
    "BackendUnavailableError",
    "UnknownBackendError",
    "available_backends",
    "backend_available",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "set_backend",
    "use_backend",
]

DEFAULT_BACKEND = "numpy_ref"
ENV_VAR = "REPRO_BACKEND"

#: Backends that exist but need an extra library: name -> install hint.
KNOWN_OPTIONAL_BACKENDS = {
    "torch": "pip install torch --index-url https://download.pytorch.org/whl/cpu",
}

_FACTORIES: dict[str, Callable[[], ArrayBackend]] = {}
_INSTANCES: dict[str, ArrayBackend] = {}
_ACTIVE: ArrayBackend | None = None
_LOCK = threading.Lock()


class UnknownBackendError(KeyError):
    """Raised for a backend name that is neither registered nor optional.

    Subclasses ``KeyError`` so pre-existing ``except KeyError`` handling
    (and tests matching on "unknown backend") keeps working.
    """

    def __init__(self, name: str) -> None:
        message = (
            f"unknown backend {name!r}; registered: "
            f"{', '.join(available_backends()) or '(none)'}"
        )
        missing = sorted(set(KNOWN_OPTIONAL_BACKENDS) - set(_FACTORIES))
        if missing:
            hints = "; ".join(
                f"{opt} ({KNOWN_OPTIONAL_BACKENDS[opt]})" for opt in missing
            )
            message += f"; known optional, not installed: {hints}"
        super().__init__(message)

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


class BackendUnavailableError(ImportError):
    """Raised when a registered optional backend fails to import."""


def register_backend(name: str, factory: Callable[[], ArrayBackend]) -> None:
    """Register a backend factory under ``name`` (idempotent per name)."""
    if not name or not isinstance(name, str):
        raise ValueError(f"backend name must be a non-empty string, got {name!r}")
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted.

    Optional backends appear only when their library is importable; use
    :func:`backend_available` to also verify the import actually works.
    """
    return tuple(sorted(_FACTORIES))


def backend_available(name: str) -> bool:
    """True when ``name`` is registered and its backend instantiates."""
    try:
        _instance(name)
    except (UnknownBackendError, BackendUnavailableError):
        return False
    return True


def _instance(name: str) -> ArrayBackend:
    backend = _INSTANCES.get(name)
    if backend is None:
        factory = _FACTORIES.get(name)
        if factory is None:
            raise UnknownBackendError(name)
        # With REPRO_OBS=1 every backend instance is wrapped in an
        # op-counting proxy (attribute-forwarding; results untouched).
        backend = maybe_instrument_backend(factory())
        _INSTANCES[name] = backend
    return backend


def get_backend() -> ArrayBackend:
    """The active backend (resolving ``REPRO_BACKEND`` on first use)."""
    global _ACTIVE
    backend = _ACTIVE
    if backend is None:
        with _LOCK:
            if _ACTIVE is None:
                _ACTIVE = _instance(os.environ.get(ENV_VAR, DEFAULT_BACKEND))
            backend = _ACTIVE
    return backend


def set_backend(backend: str | ArrayBackend) -> ArrayBackend:
    """Switch the process-wide active backend; returns the previous one.

    Accepts a registered name or an :class:`ArrayBackend` instance.
    """
    global _ACTIVE
    previous = get_backend()
    _ACTIVE = _instance(backend) if isinstance(backend, str) else backend
    return previous


def resolve_backend(
    name: str | None,
    device: str | None = None,
    dtype: str | None = None,
) -> ArrayBackend | None:
    """Resolve a (name, device, dtype) triple to a backend instance.

    Returns ``None`` when all three are ``None`` — the caller's
    :func:`use_backend` then treats it as "keep the active backend".
    Device/dtype overrides with ``name=None`` configure the *active*
    backend; numpy-family backends accept only cpu/float64 (they raise
    :class:`ValueError` otherwise, pointing at the torch backend).
    """
    if name is None and device is None and dtype is None:
        return None
    backend = _instance(name) if name is not None else get_backend()
    return backend.configured(device=device, dtype=dtype)


@contextlib.contextmanager
def use_backend(backend: str | ArrayBackend | None) -> Iterator[ArrayBackend]:
    """Context manager scoping the active backend; ``None`` is a no-op.

    Mixing tensors created under different numpy-family backends is safe
    (they share the ndarray type); device backends (torch) need their
    tensors created and consumed under the same backend scope.
    """
    if backend is None:
        yield get_backend()
        return
    previous = set_backend(backend)
    try:
        yield get_backend()
    finally:
        set_backend(previous)


def _torch_factory() -> ArrayBackend:
    try:
        from .torch_backend import TorchBackend
    except ImportError as error:
        # find_spec saw torch but the import failed (broken install,
        # missing shared libraries): surface the hint, not a traceback
        # pointing into torch internals.
        raise BackendUnavailableError(
            f"backend 'torch' is registered but failed to import: {error}. "
            f"Reinstall with: {KNOWN_OPTIONAL_BACKENDS['torch']}"
        ) from error
    return TorchBackend()


register_backend("numpy_ref", NumpyRefBackend)
if importlib.util.find_spec("torch") is not None:
    register_backend("torch", _torch_factory)
