"""The ``ArrayBackend`` protocol: every array op the substrate may issue.

``repro.autograd`` (tensors + functional ops), ``repro.nn`` and
``repro.optim`` never call an array library directly; they go through the
active :class:`ArrayBackend` (see :mod:`repro.backend.registry`).  A
backend supplies

* **primitives** — creation, elementwise math, matmul, reductions,
  shape manipulation, indexing/scatter, and RNG draws from an *explicit*
  generator object (the backend never owns hidden RNG state; callers
  thread generators through, which is what makes fits reproducible across
  backends); and
* **composites** — fusable multi-op kernels (sigmoid, softmax, the
  dilated conv1d forward/adjoint as tap-matrix GEMMs, optimiser update
  steps).  The base class implements every composite in terms of the
  primitives, so a minimal backend only implements the primitive
  surface; a performance backend overrides the composites with fused
  kernels.

Determinism rules
-----------------
* :class:`~repro.backend.numpy_ref.NumpyRefBackend` is the reference
  semantics: float64 by default (float32 preserved), numpy broadcasting,
  and bit-identical results to the pre-backend code for any fixed seed.
* Other backends must match ``numpy_ref`` *outputs and gradients* to
  tight floating-point tolerance on every op (DESIGN.md §8, "Adding a
  backend") but may reorder float reductions, fuse kernels, or update
  buffers in place.
* RNG: ``default_rng(seed)`` must return a generator whose
  ``random``/``uniform``/``normal`` draw sequences match numpy's
  ``Generator`` for the same seed, so masking and dropout patterns are
  backend-independent.

Arrays are opaque to callers: the substrate only ever feeds a backend's
arrays back into the same backend.  ``numpy_ref`` uses
``numpy.ndarray``; a backend on another array type would implement
``asarray``/``to_numpy`` conversions at the edges.
"""

from __future__ import annotations

from typing import Any, Sequence

__all__ = ["ArrayBackend"]


class ArrayBackend:
    """Abstract array backend; see the module docstring for the contract."""

    #: Registry name; subclasses override.
    name: str = "abstract"

    # ------------------------------------------------------------------
    # Creation / conversion
    # ------------------------------------------------------------------
    def asarray(self, data, dtype=None):
        raise NotImplementedError

    def to_float_array(self, data):
        """Coerce to the backend's float array (float32 kept, else float64)."""
        raise NotImplementedError

    def to_numpy(self, a):
        """Return a host-side ``numpy.ndarray`` view/copy of ``a``."""
        raise NotImplementedError

    def copy(self, a):
        raise NotImplementedError

    def copy_cast(self, a, dtype):
        """Fresh array with the given dtype (always a copy)."""
        raise NotImplementedError

    def copyto(self, dst, src) -> None:
        """Overwrite ``dst``'s contents with ``src`` (parameter loading)."""
        raise NotImplementedError

    def cast(self, a, dtype):
        raise NotImplementedError

    def zeros(self, shape, dtype=None):
        raise NotImplementedError

    def zeros_like(self, a):
        raise NotImplementedError

    def ones(self, shape, dtype=None):
        raise NotImplementedError

    def ones_like(self, a):
        raise NotImplementedError

    def empty_like(self, a):
        raise NotImplementedError

    def arange(self, start, stop=None, step=1):
        raise NotImplementedError

    def eye(self, n, dtype=None):
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Elementwise math (binary ops broadcast; scalars allowed)
    # ------------------------------------------------------------------
    def add(self, a, b, out=None):
        raise NotImplementedError

    def subtract(self, a, b, out=None):
        raise NotImplementedError

    def multiply(self, a, b, out=None):
        raise NotImplementedError

    def divide(self, a, b, out=None):
        raise NotImplementedError

    def power(self, a, exponent):
        raise NotImplementedError

    def maximum(self, a, b):
        raise NotImplementedError

    def minimum(self, a, b):
        raise NotImplementedError

    def iadd(self, a, b):
        """In-place ``a += b``; returns ``a``."""
        raise NotImplementedError

    def isub(self, a, b):
        """In-place ``a -= b``; returns ``a``."""
        raise NotImplementedError

    def imul(self, a, b):
        """In-place ``a *= b``; returns ``a``."""
        raise NotImplementedError

    def negative(self, a, out=None):
        raise NotImplementedError

    def exp(self, a, out=None):
        raise NotImplementedError

    def log(self, a, out=None):
        raise NotImplementedError

    def log1p(self, a, out=None):
        raise NotImplementedError

    def sqrt(self, a, out=None):
        raise NotImplementedError

    def abs(self, a, out=None):
        raise NotImplementedError

    def sign(self, a):
        raise NotImplementedError

    def tanh(self, a, out=None):
        raise NotImplementedError

    def sin(self, a):
        raise NotImplementedError

    def cos(self, a):
        raise NotImplementedError

    def clip(self, a, low, high, out=None):
        raise NotImplementedError

    def where(self, condition, a, b):
        raise NotImplementedError

    def greater(self, a, b):
        raise NotImplementedError

    def greater_equal(self, a, b):
        raise NotImplementedError

    def less_equal(self, a, b):
        raise NotImplementedError

    def equal(self, a, b):
        raise NotImplementedError

    def logical_or(self, a, b):
        raise NotImplementedError

    def logical_and(self, a, b):
        raise NotImplementedError

    def logical_not(self, a):
        raise NotImplementedError

    def isfinite(self, a):
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, a, b):
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, a, axis=None, keepdims: bool = False):
        raise NotImplementedError

    def amax(self, a, axis=None, keepdims: bool = False):
        raise NotImplementedError

    def amin(self, a, axis=None, keepdims: bool = False):
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, a, shape):
        raise NotImplementedError

    def transpose(self, a, axes=None):
        raise NotImplementedError

    def swapaxes(self, a, axis1: int, axis2: int):
        raise NotImplementedError

    def expand_dims(self, a, axis):
        raise NotImplementedError

    def squeeze(self, a, axis=None):
        raise NotImplementedError

    def broadcast_to(self, a, shape):
        raise NotImplementedError

    def concatenate(self, arrays: Sequence, axis: int = 0):
        raise NotImplementedError

    def stack(self, arrays: Sequence, axis: int = 0):
        raise NotImplementedError

    def split(self, a, sections: int, axis: int = 0):
        raise NotImplementedError

    def pad(self, a, pad_width, constant: float = 0.0):
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Indexing / scatter
    # ------------------------------------------------------------------
    def getitem(self, a, index):
        raise NotImplementedError

    def scatter_add(self, target, index, values) -> None:
        """Duplicate-safe in-place ``target[index] += values``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # RNG (explicit generator state)
    # ------------------------------------------------------------------
    def default_rng(self, seed=None):
        raise NotImplementedError

    def random(self, rng, shape):
        raise NotImplementedError

    def uniform(self, rng, low: float, high: float, shape):
        raise NotImplementedError

    def normal(self, rng, loc: float, scale: float, shape):
        raise NotImplementedError

    # ==================================================================
    # Composites — default implementations in terms of the primitives.
    # A fast backend overrides these with fused kernels; the defaults
    # reproduce the reference semantics exactly.
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
        """``grad * out * (1 - out)``."""
        return self.multiply(self.multiply(grad, out), self.subtract(1.0, out))

    def tanh_backward(self, grad, out):
        """``grad * (1 - out**2)``."""
        return self.multiply(grad, self.subtract(1.0, self.power(out, 2)))

    def relu(self, x):
        """Return ``(x * (x > 0), mask)`` — the mask feeds the backward."""
        mask = self.greater(x, 0)
        return self.multiply(x, mask), mask

    def relu_backward(self, grad, mask):
        return self.multiply(grad, mask)

    def maximum_backward(self, grad, a, b, a_shape, b_shape, unbroadcast):
        """Adjoint of elementwise max: winners take the gradient, ties split.

        ``unbroadcast`` is the caller's gradient-reduction function (sums
        over broadcast axes); it is passed in so backends can fuse the
        mask arithmetic without owning broadcasting semantics.
        """
        dtype = grad.dtype
        a_wins = self.cast(self.greater(a, b), dtype)
        b_wins = self.cast(self.greater(b, a), dtype)
        tie = self.multiply(self.cast(self.equal(a, b), dtype), 0.5)
        grad_a = unbroadcast(self.multiply(grad, self.add(a_wins, tie)), a_shape)
        grad_b = unbroadcast(self.multiply(grad, self.add(b_wins, tie)), b_shape)
        return grad_a, grad_b

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
    def dropout_mask(self, rng, shape, keep: float, dtype):
        """Inverted-dropout mask: ``(u < keep) / keep`` with ``u~U[0,1)``."""
        return self.divide(self.cast(self.greater(keep, self.random(rng, shape)), dtype), keep)

    # -- dilated conv1d kernels ----------------------------------------
    # Both kernels call the GEMMs of numpy's ``einsum(..., optimize=True)``
    # plan for the tap-column formulation, on the same operands, so they
    # are bitwise that formulation whenever every dimension is >= 2
    # (einsum squeezes singleton axes into different BLAS calls).

    def conv1d_apply(self, padded, weight, dilation: int, out_len: int):
        """Dilated conv forward on ``(B, C, L)`` inputs as one GEMM.

        Fills the tap matrix ``cols[(c, k), (b, t)] = padded[b, c, t + k *
        dilation]`` with one strided slab copy per tap, then returns
        ``weight (O, C*K) @ cols (C*K, B*L)`` viewed as ``(B, O, L)``.

        Returns ``(out, saved)`` where ``saved`` is backend-private
        context handed back to :meth:`conv1d_backward` (this default keeps
        ``cols``; a fused backend may keep nothing and recompute from
        ``padded``).
        """
        batch, c_in, _ = padded.shape
        c_out, _, kernel = weight.shape
        taps = self.zeros((c_in, kernel, batch, out_len), dtype=padded.dtype)
        for k in range(kernel):
            slab = self.getitem(padded, (Ellipsis, slice(k * dilation, k * dilation + out_len)))
            self.copyto(self.getitem(taps, (slice(None), k)), self.transpose(slab, (1, 0, 2)))
        cols = self.reshape(taps, (c_in * kernel, batch * out_len))
        out = self.matmul(self.reshape(weight, (c_out, c_in * kernel)), cols)
        return self.transpose(self.reshape(out, (c_out, batch, out_len)), (1, 0, 2)), cols

    def conv1d_backward(self, grad, saved, padded, weight, dilation: int):
        """Adjoint of :meth:`conv1d_apply`: ``(grad_weight, grad_padded)``.

        Two GEMMs against the saved tap matrix, then one slice-add per
        tap in increasing ``k``: the per-element summation order of a
        duplicate-safe scatter of the tap gradients.
        """
        cols = saved
        batch, c_out, out_len = grad.shape
        _, c_in, kernel = weight.shape
        grad_rows = self.reshape(self.transpose(grad, (0, 2, 1)), (batch * out_len, c_out))
        grad_weight = self.transpose(
            self.reshape(self.matmul(cols, grad_rows), (c_in, kernel, c_out)), (2, 0, 1)
        )
        weight_rows = self.reshape(self.transpose(weight, (1, 2, 0)), (c_in * kernel, c_out))
        grad_mat = self.reshape(self.transpose(grad, (1, 0, 2)), (c_out, batch * out_len))
        grad_cols = self.reshape(
            self.matmul(weight_rows, grad_mat), (c_in, kernel, batch, out_len)
        )
        grad_padded = self.zeros_like(padded)
        for k in range(kernel):
            slab = self.getitem(grad_padded, (Ellipsis, slice(k * dilation, k * dilation + out_len)))
            self.iadd(slab, self.transpose(self.getitem(grad_cols, (slice(None), k)), (1, 0, 2)))
        return grad_weight, grad_padded

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

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ArrayBackend {self.name!r}>"


# Re-exported for type annotations elsewhere.
Array = Any
