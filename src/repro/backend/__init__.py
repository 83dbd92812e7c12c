"""The array backend of the neural substrate: :class:`NumpyRefBackend`.

``repro.autograd``, ``repro.nn`` and ``repro.optim`` issue every array
operation through the active backend, registered as ``numpy_ref``.
There is no backend option: models, CLIs and the environment carry no
backend choice.  :func:`set_backend` and the :func:`use_backend` context
manager stay as the seam a test or benchmark uses to substitute a fake
or a timing proxy (DESIGN.md §8).
"""

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
    "NumpyRefBackend",
    "UnknownBackendError",
    "available_backends",
    "get_backend",
    "register_backend",
    "set_backend",
    "use_backend",
]
