"""Pluggable array backends for the neural substrate.

``repro.autograd``, ``repro.nn`` and ``repro.optim`` issue every array
operation through the active :class:`ArrayBackend` rather than calling
numpy directly.  One backend ships: ``numpy_ref`` (the default), plain
numpy, bit-identical to the pre-backend substrate for any fixed seed.

Select with ``REPRO_BACKEND=<name>``, :func:`set_backend`, the
:func:`use_backend` context manager, or ``STSMConfig(backend=...)``.
See DESIGN.md ("Array backends") for the protocol and how to add one.
"""

from .base import ArrayBackend
from .numpy_ref import NumpyRefBackend
from .registry import (
    UnknownBackendError,
    available_backends,
    get_backend,
    register_backend,
    set_backend,
    use_backend,
)

__all__ = [
    "ArrayBackend",
    "NumpyRefBackend",
    "UnknownBackendError",
    "available_backends",
    "get_backend",
    "register_backend",
    "set_backend",
    "use_backend",
]
