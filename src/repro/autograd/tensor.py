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
* The graph is a DAG of nodes.  A taped result's node (:class:`_Node`)
  holds its adjoint, its backward closure, its parent nodes, and its
  shape and dtype, but never its array: the ``Tensor`` the caller holds
  keeps that.  A leaf is its own node.  Each closure saves, at forward
  time, only the arrays its adjoint reads, so an array no adjoint reads
  dies with the forward's locals.
* ``backward`` runs a topological sort and calls each node's closure
  exactly once, then frees the node (its adjoint, closure and parent
  links), so a saved array dies once the last closure that saved it has
  run.  Leaves keep their ``.grad``; an interior tensor's is always
  ``None``, and a later ``backward`` that reaches a consumed node raises
  (PyTorch's ``retain_graph=False`` rule).
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


def _accumulate(node, grad, owned: bool = False) -> None:
    """Add ``grad`` into ``node``'s gradient buffer; a ``None`` node takes nothing.

    ``owned=True`` asserts the caller passes a freshly allocated array
    that nothing else references (the adjoint it just computed), so the
    first accumulation can adopt it instead of paying a defensive copy.
    Callers forwarding *shared* arrays — the incoming ``grad`` itself,
    or a view of it — must leave ``owned`` False.
    """
    if node is None:
        return
    b = get_backend()
    if node.grad is None:
        if owned and grad.dtype == node.dtype:
            node.grad = grad
        else:
            node.grad = b.copy_cast(grad, node.dtype)
    else:
        b.iadd(node.grad, grad)


class _Node:
    """A taped result as ``backward`` sees it: everything but its array."""

    __slots__ = ("grad", "_backward", "_parents", "shape", "dtype")

    def __init__(self, shape, dtype, parents: tuple, backward: Callable) -> None:
        self.grad, self._backward, self._parents = None, backward, parents
        self.shape, self.dtype = shape, dtype


def _tapes(nodes) -> bool:
    """Whether ``Tensor._make`` tapes a result of operands with these nodes."""
    return is_grad_enabled() and any(node is not None for node in nodes)


def _node_of(tensor: "Tensor"):
    """The node ``tensor``'s adjoint accumulates into; ``None`` if it needs none."""
    return (tensor._node or tensor) if tensor.requires_grad else None


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

    __slots__ = ("data", "grad", "requires_grad", "_node", "name")

    #: A leaf is its own tape node: no closure, no parents.
    _backward = None
    _parents = ()

    def __init__(self, data, requires_grad: bool = False, name: str | None = None) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = get_backend().to_float_array(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._node: _Node | None = None
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

    def twin(self) -> "Tensor":
        """The same array under a second tape node: same parents, same closure.

        ``backward`` then delivers each use's adjoint to the parents as a
        separate accumulation, as if the array had been computed twice.
        An untaped tensor returns itself.
        """
        node = self._node
        return self if node is None else Tensor._make(self.data, node._parents, node._backward)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to ``None``."""
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data, parents: Sequence, backward: Callable) -> "Tensor":
        """Create a result, taping it only when grad mode is on.

        ``parents`` are the operands' nodes, ``None`` for an operand that
        needs no gradient; ``backward`` must not capture a ``Tensor``.
        """
        parents = tuple(p for p in parents if p is not None)
        out = Tensor(data)
        if _tapes(parents):
            out.requires_grad = True
            out._node = _Node(out.data.shape, out.data.dtype, parents, backward)
        return out

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

        root = _node_of(self)
        topo: list = []
        visited: set[int] = set()
        stack: list = [(root, False)]
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
                if id(parent) not in visited:
                    stack.append((parent, False))

        _accumulate(root, grad)
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
        nodes = (_node_of(self), _node_of(other))

        def backward(grad) -> None:
            for node in nodes:
                if node is not None:
                    reduced = _unbroadcast(grad, node.shape)
                    _accumulate(node, reduced, owned=reduced is not grad)

        return Tensor._make(out_data, nodes, backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        b = get_backend()
        node = _node_of(self)

        def backward(grad) -> None:
            _accumulate(node, b.negative(grad), owned=True)

        return Tensor._make(b.negative(self.data), (node,), backward)

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other)
        b = get_backend()
        out_data = b.subtract(self.data, other.data)
        left, right = _node_of(self), _node_of(other)

        def backward(grad) -> None:
            if left is not None:
                reduced = _unbroadcast(grad, left.shape)
                _accumulate(left, reduced, owned=reduced is not grad)
            if right is not None:
                _accumulate(right, _unbroadcast(b.negative(grad), right.shape), owned=True)

        return Tensor._make(out_data, (left, right), backward)

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        b = get_backend()
        out_data = b.multiply(self.data, other.data)
        left, right = _node_of(self), _node_of(other)
        # Each side's adjoint reads the other side's operand.
        x = self.data if right is not None else None
        y = other.data if left is not None else None

        def backward(grad) -> None:
            if left is not None:
                _accumulate(left, _unbroadcast(b.multiply(grad, y), left.shape), owned=True)
            if right is not None:
                _accumulate(right, _unbroadcast(b.multiply(grad, x), right.shape), owned=True)

        return Tensor._make(out_data, (left, right), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        b = get_backend()
        out_data = b.divide(self.data, other.data)
        left, right = _node_of(self), _node_of(other)
        x, y = (self.data if right is not None else None), other.data

        def backward(grad) -> None:
            if left is not None:
                _accumulate(left, _unbroadcast(b.divide(grad, y), left.shape), owned=True)
            if right is not None:
                adjoint = b.divide(b.multiply(b.negative(grad), x), b.power(y, 2))
                _accumulate(right, _unbroadcast(adjoint, right.shape), owned=True)

        return Tensor._make(out_data, (left, right), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log composition")
        b = get_backend()
        x, node = self.data, _node_of(self)
        out_data = b.power(x, exponent)

        def backward(grad) -> None:
            adjoint = b.multiply(b.multiply(grad, exponent), b.power(x, exponent - 1))
            _accumulate(node, adjoint, owned=True)

        return Tensor._make(out_data, (node,), backward)

    # ------------------------------------------------------------------
    # Matrix multiplication
    # ------------------------------------------------------------------
    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        b = get_backend()
        out_data = b.matmul(self.data, other.data)
        left, right = _node_of(self), _node_of(other)
        lhs_1d, rhs_1d = self.ndim == 1, other.ndim == 1
        # Each side's adjoint reads the other side's operand.
        lhs = self.data if right is not None else None
        rhs = other.data if left is not None else None

        def backward(grad) -> None:
            if lhs_1d and rhs_1d:
                if left is not None:
                    _accumulate(left, b.multiply(grad, rhs), owned=True)
                if right is not None:
                    _accumulate(right, b.multiply(grad, lhs), owned=True)
                return
            if lhs_1d:
                # (k,) @ (..., k, n) -> (..., n)
                if left is not None:
                    grad_a = b.sum(
                        b.multiply(grad[..., None, :], rhs),
                        axis=tuple(range(grad.ndim - 1)) + (-1,),
                    )
                    grad_a = _unbroadcast(b.reshape(grad_a, left.shape), left.shape)
                    _accumulate(left, grad_a, owned=True)
                if right is not None:
                    grad_b = b.multiply(lhs[:, None], grad[..., None, :])
                    _accumulate(right, _unbroadcast(grad_b, right.shape), owned=True)
                return
            if rhs_1d:
                # (..., m, k) @ (k,) -> (..., m)
                if left is not None:
                    grad_a = b.multiply(grad[..., :, None], rhs)
                    _accumulate(left, _unbroadcast(grad_a, left.shape), owned=True)
                if right is not None:
                    grad_b = b.matmul(b.swapaxes(lhs, -1, -2), grad[..., :, None])[..., 0]
                    if grad_b.ndim > 1:
                        grad_b = b.sum(grad_b, axis=tuple(range(grad_b.ndim - 1)))
                    _accumulate(right, grad_b, owned=True)
                return
            if left is not None:
                grad_a = b.matmul(grad, b.swapaxes(rhs, -1, -2))
                _accumulate(left, _unbroadcast(grad_a, left.shape), owned=True)
            if right is not None:
                grad_b = b.matmul(b.swapaxes(lhs, -1, -2), grad)
                _accumulate(right, _unbroadcast(grad_b, right.shape), owned=True)

        return Tensor._make(out_data, (left, right), backward)

    def __rmatmul__(self, other) -> "Tensor":
        return as_tensor(other).__matmul__(self)

    # ------------------------------------------------------------------
    # Elementwise transcendental functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        b = get_backend()
        out_data, node = b.exp(self.data), _node_of(self)

        def backward(grad) -> None:
            _accumulate(node, b.multiply(grad, out_data), owned=True)

        return Tensor._make(out_data, (node,), backward)

    def log(self) -> "Tensor":
        b = get_backend()
        x, node = self.data, _node_of(self)

        def backward(grad) -> None:
            _accumulate(node, b.divide(grad, x), owned=True)

        return Tensor._make(b.log(x), (node,), backward)

    def sqrt(self) -> "Tensor":
        b = get_backend()
        out_data, node = b.sqrt(self.data), _node_of(self)

        def backward(grad) -> None:
            _accumulate(node, b.divide(b.multiply(grad, 0.5), out_data), owned=True)

        return Tensor._make(out_data, (node,), backward)

    def abs(self) -> "Tensor":
        b = get_backend()
        x, node = self.data, _node_of(self)

        def backward(grad) -> None:
            _accumulate(node, b.multiply(grad, b.sign(x)), owned=True)

        return Tensor._make(b.abs(x), (node,), backward)

    def relu(self) -> "Tensor":
        b = get_backend()
        out_data, mask = b.relu(self.data)
        node = _node_of(self)

        def backward(grad) -> None:
            _accumulate(node, b.relu_backward(grad, mask), owned=True)

        return Tensor._make(out_data, (node,), backward)

    def sigmoid(self) -> "Tensor":
        b = get_backend()
        out_data, node = b.sigmoid(self.data), _node_of(self)

        def backward(grad) -> None:
            _accumulate(node, b.sigmoid_backward(grad, out_data), owned=True)

        return Tensor._make(out_data, (node,), backward)

    def tanh(self) -> "Tensor":
        b = get_backend()
        out_data, node = b.tanh(self.data), _node_of(self)

        def backward(grad) -> None:
            _accumulate(node, b.tanh_backward(grad, out_data), owned=True)

        return Tensor._make(out_data, (node,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        b = get_backend()
        out_data, node = b.sum(self.data, axis=axis, keepdims=keepdims), _node_of(self)

        def backward(grad) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = b.expand_dims(g, axis=axis if isinstance(axis, tuple) else (axis,))
            _accumulate(node, b.cast(b.broadcast_to(g, node.shape), node.dtype), owned=True)

        return Tensor._make(out_data, (node,), backward)

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
        x, node = self.data, _node_of(self)
        out_data = reducer(x, axis=axis, keepdims=keepdims)

        def backward(grad) -> None:
            expanded = out_data
            g = grad
            if axis is not None and not keepdims:
                ax = axis if isinstance(axis, tuple) else (axis,)
                expanded = b.expand_dims(expanded, axis=ax)
                g = b.expand_dims(g, axis=ax)
            mask = b.cast(b.equal(x, expanded), x.dtype)
            # Split gradient evenly among ties so the op stays a subgradient.
            counts = (
                b.sum(mask, axis=axis, keepdims=True) if axis is not None else b.sum(mask)
            )
            _accumulate(node, b.divide(b.multiply(g, mask), counts), owned=True)

        return Tensor._make(out_data, (node,), backward)

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
        node = _node_of(self)

        def backward(grad) -> None:
            _accumulate(node, b.reshape(grad, node.shape))

        return Tensor._make(b.reshape(self.data, shape), (node,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        b = get_backend()
        node = _node_of(self)
        inverse = tuple(int(i) for i in np.argsort(axes))

        def backward(grad) -> None:
            _accumulate(node, b.transpose(grad, inverse))

        return Tensor._make(b.transpose(self.data, axes), (node,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(tuple(axes))

    def __getitem__(self, index) -> "Tensor":
        b = get_backend()
        # The adjoint scatters into zeros laid out like the input; the
        # tape keeps that layout, not the input.
        node = _node_of(self)
        layout = b.layout_of(self.data) if _tapes((node,)) else None

        def backward(grad) -> None:
            full = b.zeros_laid_out(layout)
            b.scatter_add(full, index, grad)
            _accumulate(node, full, owned=True)

        return Tensor._make(b.copy(b.getitem(self.data, index)), (node,), backward)

    def squeeze(self, axis=None) -> "Tensor":
        out_shape = get_backend().squeeze(self.data, axis=axis).shape
        return self.reshape(out_shape)


def as_tensor(value) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy when already one)."""
    return value if isinstance(value, Tensor) else Tensor(value)
