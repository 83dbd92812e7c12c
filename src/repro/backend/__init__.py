"""Pluggable array backends for the neural substrate.

``repro.autograd``, ``repro.nn`` and ``repro.optim`` issue every array
operation through the active :class:`ArrayBackend` rather than calling
numpy directly.  Two backends ship:

* ``numpy_ref`` (default) — plain numpy, bit-identical to the
  pre-backend substrate for any fixed seed;
* ``torch`` (optional; registered only when PyTorch is importable) —
  the protocol on ``torch.Tensor``, float64 by default for parity with
  float32 opt-in, cpu/cuda device selection, numpy-seeded RNG streams.

Select with ``REPRO_BACKEND=<name>``, :func:`set_backend`, the
:func:`use_backend` context manager, or ``STSMConfig(backend=...)``;
``STSMConfig(device=..., dtype=...)`` configure device backends via
:func:`resolve_backend`.  See DESIGN.md ("Array backends", "Torch
accelerator backend") for the protocol and how to add one.
"""

from .base import ArrayBackend
from .numpy_ref import NumpyRefBackend
from .registry import (
    KNOWN_OPTIONAL_BACKENDS,
    BackendUnavailableError,
    UnknownBackendError,
    available_backends,
    backend_available,
    get_backend,
    register_backend,
    resolve_backend,
    set_backend,
    use_backend,
)

__all__ = [
    "ArrayBackend",
    "BackendUnavailableError",
    "KNOWN_OPTIONAL_BACKENDS",
    "NumpyRefBackend",
    "UnknownBackendError",
    "available_backends",
    "backend_available",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "set_backend",
    "use_backend",
]
