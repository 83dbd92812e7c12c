"""The array backend: every array op ``repro.autograd``, ``repro.nn`` and
``repro.optim`` issue, as plain numpy.

:class:`NumpyRefBackend` defines **primitives** (creation, elementwise
math, matmul, reductions, shape, indexing/scatter, and RNG draws from an
*explicit* generator the caller threads through) and **composites**
built from them (sigmoid, softmax, the dilated conv1d forward/adjoint as
tap-matrix GEMMs, optimiser steps).  Any fixed-seed fit reproduces the
pre-backend substrate bit for bit (``tests/backend/test_golden_ref.py``).
The rule for both kinds of op is bitwise reproduction: a composite
may run its ufuncs in place on ``out=`` buffers it owns, but only in the
order and on the operands of the chained form; nothing reassociates a
reduction or fuses ufuncs into another sequence.  A faster backend
subclasses this class and overrides what it speeds up (DESIGN.md §8).

Importing this module also tunes glibc's allocator for the process (see
:func:`_keep_freed_memory`); every process that computes imports it.
"""

from __future__ import annotations

import ctypes
import os
from typing import Sequence

import numpy as np

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


class NumpyRefBackend:
    """Plain numpy array ops; see the module docstring for the rules."""

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

    def layout_of(self, a):
        """What ``zeros_like(a)`` reads of ``a``: shape, dtype and axis order.

        The order lists the axes outermost first in memory (``None`` when
        C-ordered), so a tape can keep this instead of ``a`` itself.
        """
        if a.flags.c_contiguous:
            order = None
        elif a.flags.f_contiguous:
            order = tuple(range(a.ndim))[::-1]
        else:  # numpy's stable sort by decreasing |stride|
            order = tuple(np.argsort([-abs(s) for s in a.strides], kind="stable"))
        return a.shape, a.dtype, order

    def zeros_laid_out(self, layout):
        """``zeros_like(a)`` from ``layout_of(a)``: the same strides, without ``a``."""
        shape, dtype, order = layout
        if order is None:
            return np.zeros(shape, dtype=dtype)
        return np.zeros([shape[i] for i in order], dtype=dtype).transpose(np.argsort(order))

    def ones(self, shape, dtype=None):
        return np.ones(shape, dtype=dtype)

    def ones_like(self, a):
        return np.ones_like(a)

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

    def sqrt(self, a, out=None):
        return np.sqrt(a, out=out)

    def abs(self, a):
        return np.absolute(a)

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

    # ==================================================================
    # Composites: multi-op kernels in terms of the primitives above.
    # ==================================================================

    # -- activations ----------------------------------------------------
    def sigmoid(self, x):
        """``1 / (1 + exp(-clip(x, -60, 60)))`` (overflow-safe logistic).

        The four ufuncs after ``clip`` run in place on its fresh result;
        a 0-d input clips to a scalar, which takes the chained form.
        """
        z = self.clip(x, -60.0, 60.0)
        if getattr(z, "ndim", 0) == 0:
            return self.divide(1.0, self.add(1.0, self.exp(self.negative(z))))
        self.negative(z, out=z)
        self.exp(z, out=z)
        self.add(1.0, z, out=z)
        return self.divide(1.0, z, out=z)

    def sigmoid_backward(self, grad, out):
        """``grad * out * (1 - out)``, the last product into the first's buffer.

        0-d operands multiply to a scalar, which takes the chained form.
        """
        scaled = self.multiply(grad, out)
        if getattr(scaled, "ndim", 0) == 0:
            return self.multiply(scaled, self.subtract(1.0, out))
        return self.multiply(scaled, self.subtract(1.0, out), out=scaled)

    def tanh_backward(self, grad, out):
        """``grad * (1 - out**2)``."""
        return self.multiply(grad, self.subtract(1.0, self.power(out, 2)))

    def relu(self, x):
        """Return ``(x * (x > 0), mask)`` — the mask feeds the backward."""
        mask = self.greater(x, 0)
        return self.multiply(x, mask), mask

    def relu_backward(self, grad, mask):
        return self.multiply(grad, mask)

    def maximum_backward(self, grad, masks, a_shape, b_shape, unbroadcast):
        """Adjoint of elementwise max: winners take the gradient, ties split.

        ``masks`` are the forward's bool ``(a > b, b > a, a == b)``; all
        three are needed because a NaN makes each of them false.
        ``unbroadcast`` is the caller's gradient-reduction function (sums
        over broadcast axes); it is passed in so the backend runs the
        mask arithmetic without owning broadcasting semantics.
        """
        dtype = grad.dtype
        a_wins, b_wins, tie = (self.cast(mask, dtype) for mask in masks)
        if getattr(tie, "ndim", 0) == 0:  # 0-d operands compare to scalars
            tie = self.multiply(tie, 0.5)
            grad_a = unbroadcast(self.multiply(grad, self.add(a_wins, tie)), a_shape)
            grad_b = unbroadcast(self.multiply(grad, self.add(b_wins, tie)), b_shape)
            return grad_a, grad_b
        # The same ufuncs in the same order, on the freshly cast masks.
        self.multiply(tie, 0.5, out=tie)
        for wins in (a_wins, b_wins):
            self.add(wins, tie, out=wins)
            self.multiply(grad, wins, out=wins)
        return unbroadcast(a_wins, a_shape), unbroadcast(b_wins, b_shape)

    # -- softmax family -------------------------------------------------
    def softmax(self, x, axis: int = -1):
        """Shift-stabilised softmax along ``axis``."""
        shifted = self.subtract(x, self.amax(x, axis=axis, keepdims=True))
        exp = self.exp(shifted)
        return self.divide(exp, self.sum(exp, axis=axis, keepdims=True))

    def softmax_backward(self, grad, out, axis: int = -1):
        """``out * (grad - sum(grad * out, axis, keepdims))``."""
        dot = self.sum(self.multiply(grad, out), axis=axis, keepdims=True)
        return self.multiply(out, self.subtract(grad, dot))

    def log_softmax(self, x, axis: int = -1):
        """Return ``(log_softmax(x), softmax(x))`` along ``axis``."""
        shifted = self.subtract(x, self.amax(x, axis=axis, keepdims=True))
        log_norm = self.log(self.sum(self.exp(shifted), axis=axis, keepdims=True))
        out = self.subtract(shifted, log_norm)
        return out, self.exp(out)

    def log_softmax_backward(self, grad, soft, axis: int = -1):
        """``grad - soft * sum(grad, axis, keepdims)``."""
        return self.subtract(grad, self.multiply(soft, self.sum(grad, axis=axis, keepdims=True)))

    # -- dropout --------------------------------------------------------
    def dropout_mask(self, rng, shape, keep: float):
        """Boolean keep mask ``u < keep`` with ``u~U[0,1)``."""
        return self.greater(keep, self.random(rng, shape))

    def dropout_scale(self, mask, keep: float, dtype):
        """Inverted-dropout multiplier of a keep mask: ``mask / keep`` as ``dtype``."""
        return self.divide(self.cast(mask, dtype), keep)

    # -- dilated conv1d kernels ----------------------------------------
    # Both kernels call the GEMMs of numpy's ``einsum(..., optimize=True)``
    # plan for the tap-column formulation of the zero-padded input, on
    # the same operands, so they are bitwise that formulation whenever
    # every dimension is >= 2 (einsum squeezes singleton axes into
    # different BLAS calls).  The padding is never materialised: a tap
    # reads, and its adjoint writes, only the in-range span of the input.

    @staticmethod
    def _conv1d_spans(length: int, kernel: int, dilation: int, padding: int):
        """Per tap ``k``: ``(k, out_span, in_span)`` slices, empty spans skipped.

        Output step ``t`` of tap ``k`` reads input step ``t + k * dilation
        - padding``; the rest of its row is zero padding.
        """
        out_len = length + 2 * padding - (kernel - 1) * dilation
        spans = []
        for k in range(kernel):
            shift = k * dilation - padding
            lo, hi = max(0, -shift), min(out_len, length - shift)
            if lo < hi:
                spans.append((k, slice(lo, hi), slice(lo + shift, hi + shift)))
        return out_len, spans

    def _conv1d_cols(self, inputs, kernel: int, dilation: int, padding: int):
        """The zero ``(C*K, B*L')`` tap matrix ``cols[(c, k), (b, t)] =
        inputs[b, c, t + k * dilation - padding]``, filled with one strided
        slab copy of each tap's in-range span; also returns the spans."""
        batch, c_in, length = inputs.shape
        out_len, spans = self._conv1d_spans(length, kernel, dilation, padding)
        taps = self.zeros((c_in, kernel, batch, out_len), dtype=inputs.dtype)
        for k, out_span, in_span in spans:
            slab = self.getitem(inputs, (Ellipsis, in_span))
            self.copyto(
                self.getitem(taps, (slice(None), k, slice(None), out_span)),
                self.transpose(slab, (1, 0, 2)),
            )
        return self.reshape(taps, (c_in * kernel, batch * out_len)), spans

    def conv1d_apply(self, inputs, weight, dilation: int, padding: int):
        """Dilated conv forward on ``(B, C, L)`` inputs as one GEMM.

        Returns ``weight (O, C*K) @ cols (C*K, B*L')`` viewed as ``(B, O,
        L')``, where ``cols`` is the tap matrix of :meth:`_conv1d_cols`.
        The taps die with the call: a tape keeps the input, which is K
        times smaller, and :meth:`conv1d_backward` rebuilds them from it.
        """
        c_out, c_in, kernel = weight.shape
        cols, _ = self._conv1d_cols(inputs, kernel, dilation, padding)
        out = self.matmul(self.reshape(weight, (c_out, c_in * kernel)), cols)
        return self.transpose(self.reshape(out, (c_out, inputs.shape[0], -1)), (1, 0, 2))

    def conv1d_backward(self, grad, inputs, weight, dilation: int, padding: int):
        """Adjoint of :meth:`conv1d_apply`: ``(grad_weight, grad_inputs)``.

        The weight adjoint is one GEMM against the tap matrix, rebuilt
        from ``inputs`` by the forward's zero fill and slab copies, so it
        sees the forward's operand.  The input adjoint is one GEMM, then
        one slice-add of each tap's in-range span in increasing ``k``
        into ``zeros_like(inputs)``: the per-element summation order of
        a duplicate-safe scatter of the tap gradients into the padded
        input, with the padding's adjoint never formed, laid out as the
        input is so every reduction downstream of it keeps its bits.
        """
        batch, c_out, out_len = grad.shape
        _, c_in, kernel = weight.shape
        cols, spans = self._conv1d_cols(inputs, kernel, dilation, padding)
        grad_rows = self.reshape(self.transpose(grad, (0, 2, 1)), (batch * out_len, c_out))
        grad_weight = self.transpose(
            self.reshape(self.matmul(cols, grad_rows), (c_in, kernel, c_out)), (2, 0, 1)
        )
        del cols  # the rebuilt taps die before the input adjoint's GEMM
        weight_rows = self.reshape(self.transpose(weight, (1, 2, 0)), (c_in * kernel, c_out))
        grad_mat = self.reshape(self.transpose(grad, (1, 0, 2)), (c_out, batch * out_len))
        grad_cols = self.reshape(
            self.matmul(weight_rows, grad_mat), (c_in, kernel, batch, out_len)
        )
        grad_inputs = self.zeros_like(inputs)
        for k, out_span, in_span in spans:
            tap = self.getitem(grad_cols, (slice(None), k, slice(None), out_span))
            slab = self.getitem(grad_inputs, (Ellipsis, in_span))
            self.iadd(slab, self.transpose(tap, (1, 0, 2)))
        return grad_weight, grad_inputs

    # -- optimiser update steps ----------------------------------------
    def sgd_step(self, param, grad, velocity, lr: float, momentum: float) -> None:
        """In-place SGD update (velocity is ``None`` without momentum)."""
        if momentum:
            self.imul(velocity, momentum)
            self.iadd(velocity, grad)
            self.isub(param, self.multiply(lr, velocity))
        else:
            self.isub(param, self.multiply(lr, grad))

    def adam_step(
        self,
        param,
        grad,
        m,
        v,
        lr: float,
        beta1: float,
        beta2: float,
        eps: float,
        correction1: float,
        correction2: float,
        weight_decay: float,
    ) -> None:
        """In-place Adam update with bias correction."""
        if weight_decay:
            grad = self.add(grad, self.multiply(weight_decay, param))
        self.imul(m, beta1)
        self.iadd(m, self.multiply(1.0 - beta1, grad))
        self.imul(v, beta2)
        self.iadd(v, self.multiply(self.multiply(1.0 - beta2, grad), grad))
        m_hat = self.divide(m, correction1)
        v_hat = self.divide(v, correction2)
        self.isub(param, self.divide(self.multiply(lr, m_hat), self.add(self.sqrt(v_hat), eps)))

    def grad_norm_squared(self, grad) -> float:
        """``float(sum(grad ** 2))`` — one term of a global norm."""
        return float(self.sum(self.power(grad, 2)))

    def scale_inplace(self, a, scale: float) -> None:
        """``a *= scale`` (gradient rescaling after clipping)."""
        self.imul(a, scale)
