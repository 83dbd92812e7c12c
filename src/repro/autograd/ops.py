"""Functional operations on :class:`~repro.autograd.tensor.Tensor`.

These complement the methods on ``Tensor`` with multi-input ops
(concatenate, stack, where, elementwise max), stabilised softmax variants,
dropout, and the dilated 1-D convolution used by the
paper's temporal module (Eq. 5).

All array math routes through the active backend
(:class:`~repro.backend.NumpyRefBackend`); this module never imports numpy.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from ..backend import get_backend
from .tensor import Tensor, _accumulate, _node_of, _tapes, _unbroadcast, as_tensor

__all__ = [
    "concatenate",
    "stack",
    "pad",
    "where",
    "maximum",
    "minimum",
    "softmax",
    "log_softmax",
    "dropout",
    "conv1d",
    "clip_values",
    "leaky_relu",
]


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (adjoint: split the gradient)."""
    tensors = [as_tensor(t) for t in tensors]
    b = get_backend()
    out_data = b.concatenate([t.data for t in tensors], axis=axis)
    offsets = list(itertools.accumulate([0] + [t.shape[axis] for t in tensors]))
    nodes = [_node_of(t) for t in tensors]

    def backward(grad) -> None:
        for node, start, stop in zip(nodes, offsets[:-1], offsets[1:]):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, stop)
            _accumulate(node, grad[tuple(index)])

    return Tensor._make(out_data, nodes, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    b = get_backend()
    out_data = b.stack([t.data for t in tensors], axis=axis)
    nodes = [_node_of(t) for t in tensors]

    def backward(grad) -> None:
        for node, slab in zip(nodes, b.split(grad, len(nodes), axis=axis)):
            _accumulate(node, b.squeeze(slab, axis=axis))

    return Tensor._make(out_data, nodes, backward)


def pad(tensor: Tensor, pad_width, constant: float = 0.0) -> Tensor:
    """Zero (or constant) padding; the adjoint slices the gradient back."""
    tensor = as_tensor(tensor)
    b = get_backend()
    out_data = b.pad(tensor.data, pad_width, constant=constant)
    slices = tuple(
        slice(before, before + n) for (before, _after), n in zip(pad_width, tensor.shape)
    )
    node = _node_of(tensor)

    def backward(grad) -> None:
        _accumulate(node, grad[slices])

    return Tensor._make(out_data, (node,), backward)


def where(condition, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select; ``condition`` is a constant boolean array."""
    a, b = as_tensor(a), as_tensor(b)
    backend = get_backend()
    cond = backend.asarray(condition, dtype=bool)
    out_data = backend.where(cond, a.data, b.data)
    node_a, node_b = _node_of(a), _node_of(b)

    def backward(grad) -> None:
        if node_a is not None:
            grad_a = backend.multiply(grad, cond)
            _accumulate(node_a, _unbroadcast(grad_a, node_a.shape), owned=True)
        if node_b is not None:
            grad_b = backend.multiply(grad, backend.logical_not(cond))
            _accumulate(node_b, _unbroadcast(grad_b, node_b.shape), owned=True)

    return Tensor._make(out_data, (node_a, node_b), backward)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max of two tensors; ties split the gradient equally.

    The tape keeps three bool masks (``x > y``, ``y > x``, ``x == y``),
    not the operands: with a NaN neither side wins and there is no tie.
    Only a taped result computes them.
    """
    a, b = as_tensor(a), as_tensor(b)
    backend = get_backend()
    x, y = a.data, b.data
    out_data = backend.maximum(x, y)
    nodes = node_a, node_b = _node_of(a), _node_of(b)
    if not _tapes(nodes):
        return Tensor(out_data)
    masks = backend.greater(x, y), backend.greater(y, x), backend.equal(x, y)
    a_shape, b_shape = x.shape, y.shape

    def backward(grad) -> None:
        grad_a, grad_b = backend.maximum_backward(grad, masks, a_shape, b_shape, _unbroadcast)
        _accumulate(node_a, grad_a, owned=True)
        _accumulate(node_b, grad_b, owned=True)

    return Tensor._make(out_data, nodes, backward)


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise min of two tensors; ties split the gradient equally."""
    return -maximum(-as_tensor(a), -as_tensor(b))


def softmax(tensor: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stabilised softmax along ``axis``."""
    tensor = as_tensor(tensor)
    b = get_backend()
    out_data, node = b.softmax(tensor.data, axis=axis), _node_of(tensor)

    def backward(grad) -> None:
        _accumulate(node, b.softmax_backward(grad, out_data, axis=axis), owned=True)

    return Tensor._make(out_data, (node,), backward)


def log_softmax(tensor: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stabilised log-softmax along ``axis``."""
    tensor = as_tensor(tensor)
    b = get_backend()
    out_data, soft = b.log_softmax(tensor.data, axis=axis)
    node = _node_of(tensor)

    def backward(grad) -> None:
        _accumulate(node, b.log_softmax_backward(grad, soft, axis=axis), owned=True)

    return Tensor._make(out_data, (node,), backward)


def dropout(tensor: Tensor, rate: float, training: bool, rng) -> Tensor:
    """Inverted dropout: scales kept units by ``1 / (1 - rate)`` at train time."""
    tensor = as_tensor(tensor)
    if not training or rate <= 0.0:
        return tensor
    if rate >= 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = 1.0 - rate
    b = get_backend()
    dtype, node = tensor.dtype, _node_of(tensor)
    # The tape keeps the boolean mask; backward rebuilds the scaled one.
    mask = b.dropout_mask(rng, tensor.shape, keep)
    out_data = b.multiply(tensor.data, b.dropout_scale(mask, keep, dtype))

    def backward(grad) -> None:
        _accumulate(node, b.multiply(grad, b.dropout_scale(mask, keep, dtype)), owned=True)

    return Tensor._make(out_data, (node,), backward)


def clip_values(tensor: Tensor, low: float, high: float) -> Tensor:
    """Clamp values; the gradient passes only through the unclipped region."""
    tensor = as_tensor(tensor)
    b = get_backend()
    out_data = b.clip(tensor.data, low, high)
    mask = b.cast(
        b.logical_and(b.greater_equal(tensor.data, low), b.less_equal(tensor.data, high)),
        tensor.dtype,
    )
    node = _node_of(tensor)

    def backward(grad) -> None:
        _accumulate(node, b.multiply(grad, mask), owned=True)

    return Tensor._make(out_data, (node,), backward)


def leaky_relu(tensor: Tensor, negative_slope: float = 0.2) -> Tensor:
    """``x`` for positive inputs, ``slope * x`` otherwise (GAT's default 0.2)."""
    tensor = as_tensor(tensor)
    b = get_backend()
    positive = b.greater(tensor.data, 0)
    out_data = b.where(positive, tensor.data, b.multiply(negative_slope, tensor.data))
    node = _node_of(tensor)

    def backward(grad) -> None:
        _accumulate(node, b.multiply(grad, b.where(positive, 1.0, negative_slope)), owned=True)

    return Tensor._make(out_data, (node,), backward)


def _conv1d_output_length(length: int, kernel: int, dilation: int, padding: int) -> int:
    effective = (kernel - 1) * dilation + 1
    return length + 2 * padding - effective + 1


def conv1d(
    inputs: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    dilation: int = 1,
    padding: int = 0,
) -> Tensor:
    """Dilated 1-D convolution (the paper's TCN primitive, Eq. 5).

    Parameters
    ----------
    inputs:
        ``(batch, channels_in, length)``.
    weight:
        ``(channels_out, channels_in, kernel)``.
    bias:
        Optional ``(channels_out,)``.
    dilation:
        Spacing between kernel taps (paper uses ``2**j``).
    padding:
        Symmetric zero padding applied to the length axis.

    Returns
    -------
    Tensor
        ``(batch, channels_out, length_out)``.
    """
    inputs = as_tensor(inputs)
    weight = as_tensor(weight)
    batch, c_in, length = inputs.shape
    c_out, c_in_w, kernel = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"channel mismatch: input has {c_in}, weight expects {c_in_w}")
    out_len = _conv1d_output_length(length, kernel, dilation, padding)
    if out_len <= 0:
        raise ValueError(
            f"conv1d output length would be {out_len} "
            f"(length={length}, kernel={kernel}, dilation={dilation}, padding={padding})"
        )

    b = get_backend()
    w = weight.data  # (c_out, c_in, kernel)
    x = inputs.data  # the tape keeps the input; backward rebuilds its taps
    out_data = b.conv1d_apply(x, w, dilation, padding)
    if bias is not None:
        out_data = b.add(out_data, bias.data[None, :, None])
    node_x, node_w = _node_of(inputs), _node_of(weight)
    node_b = None if bias is None else _node_of(bias)

    def backward(grad) -> None:
        # grad: (batch, c_out, out_len)
        grad_w, grad_x = b.conv1d_backward(grad, x, w, dilation, padding)
        _accumulate(node_w, grad_w, owned=True)
        if bias is not None:
            _accumulate(node_b, b.sum(grad, axis=(0, 2)), owned=True)
        _accumulate(node_x, grad_x, owned=True)

    return Tensor._make(out_data, (node_x, node_w, node_b), backward)
