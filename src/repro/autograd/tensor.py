"""Core reverse-mode automatic differentiation tensor.

This module provides :class:`Tensor`, a thin wrapper around an array that
records the operations applied to it on a tape and can replay them
backwards to accumulate gradients.  It is the substrate on which every
neural module in this repository is built (the paper's reference
implementation uses PyTorch; see DESIGN.md for the substitution rationale).

Every array operation is issued through the active backend
(``repro.backend.get_backend()``, a
:class:`~repro.backend.NumpyRefBackend` unless a test or benchmark
substitutes one), never through numpy directly; ``numpy_ref``
reproduces the historical bit-exact numbers.

Design notes
------------
* Gradients are dense arrays of the same shape as ``data``.
* Broadcasting follows numpy semantics; backward passes "unbroadcast" by
  summing gradients over the broadcast axes.
* The graph is a DAG of ``Tensor`` nodes.  ``backward`` runs a topological
  sort and calls each node's local backward closure exactly once, then
  frees the node (its adjoint, closure and parent links), so an
  activation dies once the last closure that saved it has run.  Leaves
  keep their ``.grad``; an interior node's is ``None`` afterwards, and a
  later ``backward`` that reaches a consumed node raises (PyTorch's
  ``retain_graph=False`` rule).
* A thread-local flag (:func:`no_grad`) disables taping, which makes
  inference allocation-free apart from the forward arrays.  Per-thread
  scoping matters: serving threads run ``predict`` under ``no_grad()``
  while the streaming subsystem may be training a refit on another
  thread of the same process.
* Most backward closures capture the backend active at forward time,
  but gradient accumulation, unbroadcasting and the seed gradient
  resolve the backend live — a taped graph must therefore be replayed
  under the backend (or a value-compatible backend) that built it.
  Backends on the same ``numpy.ndarray`` type are mutually compatible.
"""

from __future__ import annotations

import contextlib
import math
import threading
from typing import Callable, Sequence

import numpy as np

from ..backend import get_backend

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "as_tensor"]

# Grad mode is per-thread: a serving thread running ``predict`` under
# ``no_grad()`` must not stop a concurrent training thread from taping
# (the streaming subsystem refits a model while the previous one serves
# in the same process).
_GRAD_STATE = threading.local()


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient taping inside its block."""
    previous = is_grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def is_grad_enabled() -> bool:
    """Return whether operations are currently recorded on the tape."""
    return getattr(_GRAD_STATE, "enabled", True)


def _unbroadcast(grad, shape: tuple[int, ...]):
    """Sum ``grad`` down to ``shape`` to undo broadcasting.

    Broadcasting may prepend axes and/or stretch length-1 axes.  The
    adjoint of broadcasting is summation over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    b = get_backend()
    # Sum over prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = b.sum(grad, axis=tuple(range(extra)))
    # Sum over stretched axes.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = b.sum(grad, axis=axes, keepdims=True)
    return b.reshape(grad, shape)


def _consumed(grad=None) -> None:
    """Closure of a node ``backward`` has consumed: reaching it again raises."""
    raise RuntimeError(
        "backward() reached a node an earlier backward() already consumed and freed; "
        "run the forward pass again to build a fresh graph"
    )


class Tensor:
    """A backend-array tensor with reverse-mode autodiff support.

    Parameters
    ----------
    data:
        Array-like value.  Stored as ``float64`` unless already a float
        array (``float32`` is preserved).
    requires_grad:
        Whether gradients should be accumulated into ``self.grad`` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: Sequence["Tensor"] = (),
        _backward: Callable | None = None,
        name: str | None = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = get_backend().to_float_array(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = tuple(_parents)
        self._backward = _backward
        self.name = name

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        rendered = np.array2string(get_backend().to_numpy(self.data), precision=4, threshold=8)
        return f"Tensor({rendered}{grad_flag})"

    def numpy(self):
        """Return the underlying array as numpy (no copy when host-side)."""
        return get_backend().to_numpy(self.data)

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        arr = get_backend().to_numpy(self.data)
        return float(arr.reshape(-1)[0]) if arr.size == 1 else arr.item()

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the tape."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a taped identity copy (gradient flows through)."""
        return self.reshape(self.shape)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to ``None``."""
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data,
        parents: Sequence["Tensor"],
        backward: Callable,
    ) -> "Tensor":
        """Create a result node, taping it only when grad mode is on."""
        track = is_grad_enabled() and any(p.requires_grad for p in parents)
        if not track:
            return Tensor(data)
        return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)

    def _accumulate(self, grad, owned: bool = False) -> None:
        """Add ``grad`` into this node's gradient buffer.

        ``owned=True`` asserts the caller passes a freshly allocated
        array that nothing else references (the adjoint it just
        computed), so the first accumulation can adopt it instead of
        paying a defensive copy.  Callers forwarding *shared* arrays —
        the incoming ``grad`` itself, or a view of it — must leave
        ``owned`` False.
        """
        if not self.requires_grad:
            return
        b = get_backend()
        if self.grad is None:
            if owned and grad.dtype == self.data.dtype:
                self.grad = grad
            else:
                self.grad = b.copy_cast(grad, self.data.dtype)
        else:
            b.iadd(self.grad, grad)

    def backward(self, grad=None) -> None:
        """Run reverse-mode autodiff from this node.

        Parameters
        ----------
        grad:
            Seed gradient.  Defaults to 1 for scalar tensors; required for
            non-scalar roots.

        Raises ``RuntimeError`` before accumulating anything when the
        graph holds a node an earlier ``backward`` consumed.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        b = get_backend()
        if grad is None:
            if self.size != 1:
                raise RuntimeError("backward() on a non-scalar tensor requires an explicit gradient")
            grad = b.ones_like(self.data)
        grad = b.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = b.cast(b.broadcast_to(grad, self.data.shape), self.data.dtype)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._backward is _consumed:
                _consumed()
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited and parent.requires_grad:
                    stack.append((parent, False))

        self._accumulate(grad)
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._backward, node._parents = None, _consumed, ()

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = get_backend().add(self.data, other.data)

        def backward(grad) -> None:
            for tensor in (self, other):
                if tensor.requires_grad:
                    reduced = _unbroadcast(grad, tensor.shape)
                    tensor._accumulate(reduced, owned=reduced is not grad)

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        b = get_backend()

        def backward(grad) -> None:
            self._accumulate(b.negative(grad), owned=True)

        return Tensor._make(b.negative(self.data), (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other)
        b = get_backend()
        out_data = b.subtract(self.data, other.data)

        def backward(grad) -> None:
            if self.requires_grad:
                reduced = _unbroadcast(grad, self.shape)
                self._accumulate(reduced, owned=reduced is not grad)
            if other.requires_grad:
                other._accumulate(_unbroadcast(b.negative(grad), other.shape), owned=True)

        return Tensor._make(out_data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        b = get_backend()
        out_data = b.multiply(self.data, other.data)

        def backward(grad) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(b.multiply(grad, other.data), self.shape), owned=True)
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(b.multiply(grad, self.data), other.shape), owned=True
                )

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        b = get_backend()
        out_data = b.divide(self.data, other.data)

        def backward(grad) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(b.divide(grad, other.data), self.shape), owned=True)
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(
                        b.divide(b.multiply(b.negative(grad), self.data), b.power(other.data, 2)),
                        other.shape,
                    ),
                    owned=True,
                )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log composition")
        b = get_backend()
        out_data = b.power(self.data, exponent)

        def backward(grad) -> None:
            self._accumulate(
                b.multiply(b.multiply(grad, exponent), b.power(self.data, exponent - 1)),
                owned=True,
            )

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Matrix multiplication
    # ------------------------------------------------------------------
    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        b = get_backend()
        out_data = b.matmul(self.data, other.data)

        def backward(grad) -> None:
            lhs, rhs = self.data, other.data
            if lhs.ndim == 1 and rhs.ndim == 1:
                if self.requires_grad:
                    self._accumulate(b.multiply(grad, rhs), owned=True)
                if other.requires_grad:
                    other._accumulate(b.multiply(grad, lhs), owned=True)
                return
            if lhs.ndim == 1:
                # (k,) @ (..., k, n) -> (..., n)
                if self.requires_grad:
                    grad_a = b.sum(
                        b.multiply(grad[..., None, :], rhs),
                        axis=tuple(range(grad.ndim - 1)) + (-1,),
                    )
                    self._accumulate(
                        _unbroadcast(b.reshape(grad_a, lhs.shape), lhs.shape), owned=True
                    )
                if other.requires_grad:
                    other._accumulate(
                        _unbroadcast(b.multiply(lhs[:, None], grad[..., None, :]), rhs.shape),
                        owned=True,
                    )
                return
            if rhs.ndim == 1:
                # (..., m, k) @ (k,) -> (..., m)
                if self.requires_grad:
                    self._accumulate(
                        _unbroadcast(b.multiply(grad[..., :, None], rhs), lhs.shape), owned=True
                    )
                if other.requires_grad:
                    grad_b = b.matmul(b.swapaxes(lhs, -1, -2), grad[..., :, None])[..., 0]
                    if grad_b.ndim > 1:
                        grad_b = b.sum(grad_b, axis=tuple(range(grad_b.ndim - 1)))
                    other._accumulate(grad_b, owned=True)
                return
            if self.requires_grad:
                grad_a = b.matmul(grad, b.swapaxes(rhs, -1, -2))
                self._accumulate(_unbroadcast(grad_a, lhs.shape), owned=True)
            if other.requires_grad:
                grad_b = b.matmul(b.swapaxes(lhs, -1, -2), grad)
                other._accumulate(_unbroadcast(grad_b, rhs.shape), owned=True)

        return Tensor._make(out_data, (self, other), backward)

    def __rmatmul__(self, other) -> "Tensor":
        return as_tensor(other).__matmul__(self)

    # ------------------------------------------------------------------
    # Elementwise transcendental functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        b = get_backend()
        out_data = b.exp(self.data)

        def backward(grad) -> None:
            self._accumulate(b.multiply(grad, out_data), owned=True)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        b = get_backend()
        out_data = b.log(self.data)

        def backward(grad) -> None:
            self._accumulate(b.divide(grad, self.data), owned=True)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        b = get_backend()
        out_data = b.sqrt(self.data)

        def backward(grad) -> None:
            self._accumulate(b.divide(b.multiply(grad, 0.5), out_data), owned=True)

        return Tensor._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        b = get_backend()
        out_data = b.abs(self.data)

        def backward(grad) -> None:
            self._accumulate(b.multiply(grad, b.sign(self.data)), owned=True)

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        b = get_backend()
        out_data, mask = b.relu(self.data)

        def backward(grad) -> None:
            self._accumulate(b.relu_backward(grad, mask), owned=True)

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        b = get_backend()
        out_data = b.sigmoid(self.data)

        def backward(grad) -> None:
            self._accumulate(b.sigmoid_backward(grad, out_data), owned=True)

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        b = get_backend()
        out_data = b.tanh(self.data)

        def backward(grad) -> None:
            self._accumulate(b.tanh_backward(grad, out_data), owned=True)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        b = get_backend()
        out_data = b.sum(self.data, axis=axis, keepdims=keepdims)

        def backward(grad) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = b.expand_dims(g, axis=axis if isinstance(axis, tuple) else (axis,))
            self._accumulate(b.cast(b.broadcast_to(g, self.shape), self.data.dtype), owned=True)

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        elif isinstance(axis, tuple):
            count = int(math.prod(self.shape[a] for a in axis))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def _minmax(self, axis, keepdims: bool, mode: str) -> "Tensor":
        b = get_backend()
        reducer = b.amax if mode == "max" else b.amin
        out_data = reducer(self.data, axis=axis, keepdims=keepdims)

        def backward(grad) -> None:
            expanded = out_data
            g = grad
            if axis is not None and not keepdims:
                ax = axis if isinstance(axis, tuple) else (axis,)
                expanded = b.expand_dims(expanded, axis=ax)
                g = b.expand_dims(g, axis=ax)
            mask = b.cast(b.equal(self.data, expanded), self.data.dtype)
            # Split gradient evenly among ties so the op stays a subgradient.
            counts = (
                b.sum(mask, axis=axis, keepdims=True) if axis is not None else b.sum(mask)
            )
            self._accumulate(b.divide(b.multiply(g, mask), counts), owned=True)

        return Tensor._make(out_data, (self,), backward)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        return self._minmax(axis, keepdims, "max")

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return self._minmax(axis, keepdims, "min")

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        b = get_backend()
        out_data = b.reshape(self.data, shape)
        original = self.shape

        def backward(grad) -> None:
            self._accumulate(b.reshape(grad, original))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        b = get_backend()
        out_data = b.transpose(self.data, axes)
        inverse = tuple(int(i) for i in np.argsort(axes))

        def backward(grad) -> None:
            self._accumulate(b.transpose(grad, inverse))

        return Tensor._make(out_data, (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(tuple(axes))

    def __getitem__(self, index) -> "Tensor":
        b = get_backend()
        out_data = b.getitem(self.data, index)

        def backward(grad) -> None:
            full = b.zeros_like(self.data)
            b.scatter_add(full, index, grad)
            self._accumulate(full, owned=True)

        return Tensor._make(b.copy(out_data), (self,), backward)

    def squeeze(self, axis=None) -> "Tensor":
        out_shape = get_backend().squeeze(self.data, axis=axis).shape
        return self.reshape(out_shape)


def as_tensor(value) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy when already one)."""
    return value if isinstance(value, Tensor) else Tensor(value)
