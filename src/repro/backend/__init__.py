"""Pluggable array backends for the neural substrate.

``repro.autograd``, ``repro.nn`` and ``repro.optim`` issue every array
operation through the active :class:`ArrayBackend` rather than calling
numpy directly.  One backend ships: ``numpy_ref`` (the default), plain
numpy, bit-identical to the pre-backend substrate for any fixed seed.

There is no backend option: models, CLIs and the environment carry no
backend choice.  :func:`set_backend` and the :func:`use_backend` context
manager stay as the seam a test or benchmark uses to substitute a fake
or a timing proxy.  See DESIGN.md ("Array backends") for the protocol
and how to add one.
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
