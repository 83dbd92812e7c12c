"""Backend registry: naming, substitution, and the process-wide active backend.

The active backend is ``numpy_ref`` until :func:`set_backend` or the
:func:`use_backend` context manager substitutes another registered
name or a :class:`NumpyRefBackend` instance — the seam a test or
benchmark uses to swap in a fake or a timing proxy.  Models, CLIs and
the environment carry no backend choice.  An unknown name raises
:class:`UnknownBackendError` listing the registered backends.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterator

from ..obs.profiling import maybe_instrument_backend
from .numpy_ref import NumpyRefBackend

__all__ = [
    "UnknownBackendError",
    "available_backends",
    "get_backend",
    "register_backend",
    "set_backend",
    "use_backend",
]

DEFAULT_BACKEND = "numpy_ref"

_FACTORIES: dict[str, Callable[[], NumpyRefBackend]] = {}
_INSTANCES: dict[str, NumpyRefBackend] = {}
_ACTIVE: NumpyRefBackend | None = None
_LOCK = threading.Lock()


class UnknownBackendError(KeyError):
    """Raised for a backend name that is not registered.

    Subclasses ``KeyError`` so pre-existing ``except KeyError`` handling
    (and tests matching on "unknown backend") keeps working.
    """

    def __init__(self, name: str) -> None:
        super().__init__(
            f"unknown backend {name!r}; registered: "
            f"{', '.join(available_backends()) or '(none)'}"
        )

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


def register_backend(name: str, factory: Callable[[], NumpyRefBackend]) -> None:
    """Register a backend factory under ``name`` (idempotent per name)."""
    if not name or not isinstance(name, str):
        raise ValueError(f"backend name must be a non-empty string, got {name!r}")
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_FACTORIES))


def _instance(name: str) -> NumpyRefBackend:
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


def get_backend() -> NumpyRefBackend:
    """The active backend (``numpy_ref`` unless substituted)."""
    global _ACTIVE
    backend = _ACTIVE
    if backend is None:
        with _LOCK:
            if _ACTIVE is None:
                _ACTIVE = _instance(DEFAULT_BACKEND)
            backend = _ACTIVE
    return backend


def set_backend(backend: str | NumpyRefBackend) -> NumpyRefBackend:
    """Switch the process-wide active backend; returns the previous one.

    Accepts a registered name or a :class:`NumpyRefBackend` instance.
    """
    global _ACTIVE
    previous = get_backend()
    _ACTIVE = _instance(backend) if isinstance(backend, str) else backend
    return previous


@contextlib.contextmanager
def use_backend(backend: str | NumpyRefBackend) -> Iterator[NumpyRefBackend]:
    """Context manager scoping the active backend."""
    previous = set_backend(backend)
    try:
        yield get_backend()
    finally:
        set_backend(previous)


register_backend("numpy_ref", NumpyRefBackend)
