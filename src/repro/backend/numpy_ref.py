"""Reference numpy backend — bit-identical to the pre-backend substrate.

Every primitive is the literal numpy expression the autograd/nn/optim code
used before the backend seam existed, so any fixed-seed fit through this
backend reproduces the historical results exactly (enforced by
``tests/backend/test_golden_ref.py``).  Keep it boring: ``out=`` buffers
only where the ufunc sequence is unchanged, no reassociated reductions,
no fused kernels.

Importing this module also tunes glibc's allocator for the process (see
:func:`_keep_freed_memory`); every process that computes imports it.
"""

from __future__ import annotations

import ctypes
import os
from typing import Sequence

import numpy as np

from .base import ArrayBackend

__all__ = ["NumpyRefBackend"]

#: ``(mallopt parameter, value)`` pairs, applied in order.  By default
#: glibc mmaps every array over its dynamic threshold, unmaps it on
#: free, and trims the heap top, so each 0.4-1.3 MB autograd temporary
#: faults its pages in again: a ``perfbench`` fit op took 438k-999k
#: minor faults and 1.2-2.9 s of system time (bimodal between runs).
#: With these settings it takes 13-105 faults and no system time, and
#: runs in half the time (2-CPU x86-64 host, glibc 2.36).  The mmap
#: threshold only has to clear those temporaries (4 MiB measured the
#: same); 32 MiB is glibc's 64-bit maximum.  One arena keeps serving
#: threads from each holding freed memory of their own: without it
#: ``serve_cold`` peak RSS rose from 236.7 to 267.7-272.9 MB.
_MALLOPT_SETTINGS = (
    (-8, 1),  # M_ARENA_MAX
    (-3, 32 * 2**20),  # M_MMAP_THRESHOLD (glibc's 64-bit maximum)
    (-1, 256 * 2**20),  # M_TRIM_THRESHOLD
)


def _keep_freed_memory() -> None:
    """Make glibc keep freed array memory in the process for reuse.

    Does nothing on another libc, without ``mallopt``, or from the
    first setting glibc refuses (``mallopt`` returns 0).
    """
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _MALLOPT_SETTINGS:
        if mallopt(param, value) == 0:
            return


_keep_freed_memory()


class NumpyRefBackend(ArrayBackend):
    """Plain numpy implementation of the :class:`ArrayBackend` surface."""

    name = "numpy_ref"

    # -- creation / conversion -----------------------------------------
    def asarray(self, data, dtype=None):
        return np.asarray(data, dtype=dtype)

    def to_float_array(self, data):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        return arr

    def to_numpy(self, a):
        return np.asarray(a)

    def copy(self, a):
        return np.array(a, copy=True)

    def copy_cast(self, a, dtype):
        return np.array(a, dtype=dtype, copy=True)

    def copyto(self, dst, src) -> None:
        np.copyto(dst, src)

    def cast(self, a, dtype):
        return a.astype(dtype)

    def zeros(self, shape, dtype=None):
        return np.zeros(shape, dtype=dtype)

    def zeros_like(self, a):
        return np.zeros_like(a)

    def ones(self, shape, dtype=None):
        return np.ones(shape, dtype=dtype)

    def ones_like(self, a):
        return np.ones_like(a)

    def empty_like(self, a):
        return np.empty_like(a)

    def arange(self, start, stop=None, step=1):
        if stop is None:
            return np.arange(start)
        return np.arange(start, stop, step)

    def eye(self, n, dtype=None):
        return np.eye(n, dtype=dtype)

    # -- elementwise ----------------------------------------------------
    def add(self, a, b, out=None):
        return np.add(a, b, out=out)

    def subtract(self, a, b, out=None):
        return np.subtract(a, b, out=out)

    def multiply(self, a, b, out=None):
        return np.multiply(a, b, out=out)

    def divide(self, a, b, out=None):
        return np.divide(a, b, out=out)

    def power(self, a, exponent):
        return a ** exponent

    def maximum(self, a, b):
        return np.maximum(a, b)

    def minimum(self, a, b):
        return np.minimum(a, b)

    def iadd(self, a, b):
        a += b
        return a

    def isub(self, a, b):
        a -= b
        return a

    def imul(self, a, b):
        a *= b
        return a

    def negative(self, a, out=None):
        return np.negative(a, out=out)

    def exp(self, a, out=None):
        return np.exp(a, out=out)

    def log(self, a, out=None):
        return np.log(a, out=out)

    def log1p(self, a, out=None):
        return np.log1p(a, out=out)

    def sqrt(self, a, out=None):
        return np.sqrt(a, out=out)

    def abs(self, a, out=None):
        return np.absolute(a, out=out)

    def sign(self, a):
        return np.sign(a)

    def tanh(self, a, out=None):
        return np.tanh(a, out=out)

    def sin(self, a):
        return np.sin(a)

    def cos(self, a):
        return np.cos(a)

    def clip(self, a, low, high, out=None):
        return np.clip(a, low, high, out=out)

    def where(self, condition, a, b):
        return np.where(condition, a, b)

    def greater(self, a, b):
        return np.greater(a, b)

    def greater_equal(self, a, b):
        return np.greater_equal(a, b)

    def less_equal(self, a, b):
        return np.less_equal(a, b)

    def equal(self, a, b):
        return np.equal(a, b)

    def logical_or(self, a, b):
        return np.logical_or(a, b)

    def logical_and(self, a, b):
        return np.logical_and(a, b)

    def logical_not(self, a):
        return np.logical_not(a)

    def isfinite(self, a):
        return np.isfinite(a)

    # -- linear algebra -------------------------------------------------
    def matmul(self, a, b):
        return a @ b

    # -- reductions -----------------------------------------------------
    def sum(self, a, axis=None, keepdims: bool = False):
        return np.sum(a, axis=axis, keepdims=keepdims)

    def amax(self, a, axis=None, keepdims: bool = False):
        return np.max(a, axis=axis, keepdims=keepdims)

    def amin(self, a, axis=None, keepdims: bool = False):
        return np.min(a, axis=axis, keepdims=keepdims)

    # -- shape ----------------------------------------------------------
    def reshape(self, a, shape):
        return a.reshape(shape)

    def transpose(self, a, axes=None):
        return a.transpose(axes) if axes is not None else a.transpose()

    def swapaxes(self, a, axis1: int, axis2: int):
        return np.swapaxes(a, axis1, axis2)

    def expand_dims(self, a, axis):
        return np.expand_dims(a, axis=axis)

    def squeeze(self, a, axis=None):
        return np.squeeze(a, axis=axis)

    def broadcast_to(self, a, shape):
        return np.broadcast_to(a, shape)

    def concatenate(self, arrays: Sequence, axis: int = 0):
        return np.concatenate(arrays, axis=axis)

    def stack(self, arrays: Sequence, axis: int = 0):
        return np.stack(arrays, axis=axis)

    def split(self, a, sections: int, axis: int = 0):
        return np.split(a, sections, axis=axis)

    def pad(self, a, pad_width, constant: float = 0.0):
        return np.pad(a, pad_width, constant_values=constant)

    # -- indexing / scatter ---------------------------------------------
    def getitem(self, a, index):
        return a[index]

    def scatter_add(self, target, index, values) -> None:
        np.add.at(target, index, values)

    # -- RNG -------------------------------------------------------------
    def default_rng(self, seed=None):
        return np.random.default_rng(seed)

    def random(self, rng, shape):
        return rng.random(shape)

    def uniform(self, rng, low: float, high: float, shape):
        return rng.uniform(low, high, size=shape)

    def normal(self, rng, loc: float, scale: float, shape):
        return rng.normal(loc, scale, size=shape)
