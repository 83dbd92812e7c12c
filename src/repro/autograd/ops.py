"""Functional operations on :class:`~repro.autograd.tensor.Tensor`.

These complement the methods on ``Tensor`` with multi-input ops
(concatenate, stack, where, elementwise max), stabilised softmax variants,
dropout, embedding lookup, and the dilated 1-D convolution used by the
paper's temporal module (Eq. 5).

All array math routes through the active
:class:`~repro.backend.ArrayBackend`; numpy appears only for host-side
bookkeeping (index arithmetic, shape accounting).
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from ..backend import get_backend
from .tensor import Tensor, _unbroadcast, as_tensor

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
    "embedding",
    "conv1d",
    "clip_values",
    "leaky_relu",
    "elu",
    "gelu",
    "softplus",
]


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (adjoint: split the gradient)."""
    tensors = [as_tensor(t) for t in tensors]
    b = get_backend()
    out_data = b.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = list(itertools.accumulate([0] + sizes))

    def backward(grad) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, stop)
            tensor._accumulate(grad[tuple(index)])

    return Tensor._make(out_data, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    b = get_backend()
    out_data = b.stack([t.data for t in tensors], axis=axis)

    def backward(grad) -> None:
        slabs = b.split(grad, len(tensors), axis=axis)
        for tensor, slab in zip(tensors, slabs):
            tensor._accumulate(b.squeeze(slab, axis=axis))

    return Tensor._make(out_data, tuple(tensors), backward)


def pad(tensor: Tensor, pad_width, constant: float = 0.0) -> Tensor:
    """Zero (or constant) padding; the adjoint slices the gradient back."""
    tensor = as_tensor(tensor)
    b = get_backend()
    out_data = b.pad(tensor.data, pad_width, constant=constant)
    slices = tuple(
        slice(before, before + n) for (before, _after), n in zip(pad_width, tensor.shape)
    )

    def backward(grad) -> None:
        tensor._accumulate(grad[slices])

    return Tensor._make(out_data, (tensor,), backward)


def where(condition, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select; ``condition`` is a constant boolean array."""
    a, b = as_tensor(a), as_tensor(b)
    backend = get_backend()
    cond = backend.asarray(condition, dtype=bool)
    out_data = backend.where(cond, a.data, b.data)

    def backward(grad) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(backend.multiply(grad, cond), a.shape), owned=True)
        if b.requires_grad:
            b._accumulate(
                _unbroadcast(backend.multiply(grad, backend.logical_not(cond)), b.shape),
                owned=True,
            )

    return Tensor._make(out_data, (a, b), backward)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max of two tensors; ties split the gradient equally."""
    a, b = as_tensor(a), as_tensor(b)
    backend = get_backend()
    out_data = backend.maximum(a.data, b.data)

    def backward(grad) -> None:
        grad_a, grad_b = backend.maximum_backward(
            grad, a.data, b.data, a.shape, b.shape, _unbroadcast
        )
        a._accumulate(grad_a, owned=True)
        b._accumulate(grad_b, owned=True)

    return Tensor._make(out_data, (a, b), backward)


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise min of two tensors; ties split the gradient equally."""
    return -maximum(-as_tensor(a), -as_tensor(b))


def softmax(tensor: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stabilised softmax along ``axis``."""
    tensor = as_tensor(tensor)
    b = get_backend()
    out_data = b.softmax(tensor.data, axis=axis)

    def backward(grad) -> None:
        tensor._accumulate(b.softmax_backward(grad, out_data, axis=axis), owned=True)

    return Tensor._make(out_data, (tensor,), backward)


def log_softmax(tensor: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stabilised log-softmax along ``axis``."""
    tensor = as_tensor(tensor)
    b = get_backend()
    out_data, soft = b.log_softmax(tensor.data, axis=axis)

    def backward(grad) -> None:
        tensor._accumulate(b.log_softmax_backward(grad, soft, axis=axis), owned=True)

    return Tensor._make(out_data, (tensor,), backward)


def dropout(tensor: Tensor, rate: float, training: bool, rng) -> Tensor:
    """Inverted dropout: scales kept units by ``1 / (1 - rate)`` at train time."""
    tensor = as_tensor(tensor)
    if not training or rate <= 0.0:
        return tensor
    if rate >= 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = 1.0 - rate
    b = get_backend()
    mask = b.dropout_mask(rng, tensor.shape, keep, tensor.dtype)
    out_data = b.multiply(tensor.data, mask)

    def backward(grad) -> None:
        tensor._accumulate(b.multiply(grad, mask), owned=True)

    return Tensor._make(out_data, (tensor,), backward)


def embedding(table: Tensor, indices) -> Tensor:
    """Row lookup ``table[indices]`` with scatter-add adjoint."""
    table = as_tensor(table)
    b = get_backend()
    idx = np.asarray(indices, dtype=np.int64)
    out_data = b.getitem(table.data, idx)

    def backward(grad) -> None:
        full = b.zeros_like(table.data)
        b.scatter_add(full, idx, grad)
        table._accumulate(full, owned=True)

    return Tensor._make(b.copy(out_data), (table,), backward)


def clip_values(tensor: Tensor, low: float, high: float) -> Tensor:
    """Clamp values; the gradient passes only through the unclipped region."""
    tensor = as_tensor(tensor)
    b = get_backend()
    out_data = b.clip(tensor.data, low, high)
    mask = b.cast(
        b.logical_and(b.greater_equal(tensor.data, low), b.less_equal(tensor.data, high)),
        tensor.dtype,
    )

    def backward(grad) -> None:
        tensor._accumulate(b.multiply(grad, mask), owned=True)

    return Tensor._make(out_data, (tensor,), backward)


def leaky_relu(tensor: Tensor, negative_slope: float = 0.2) -> Tensor:
    """``x`` for positive inputs, ``slope * x`` otherwise (GAT's default 0.2)."""
    tensor = as_tensor(tensor)
    b = get_backend()
    positive = b.greater(tensor.data, 0)
    out_data = b.where(positive, tensor.data, b.multiply(negative_slope, tensor.data))

    def backward(grad) -> None:
        tensor._accumulate(b.multiply(grad, b.where(positive, 1.0, negative_slope)), owned=True)

    return Tensor._make(out_data, (tensor,), backward)


def elu(tensor: Tensor, alpha: float = 1.0) -> Tensor:
    """Exponential linear unit: ``x`` if positive else ``α (eˣ − 1)``."""
    tensor = as_tensor(tensor)
    b = get_backend()
    positive = b.greater(tensor.data, 0)
    exp_term = b.multiply(alpha, b.subtract(b.exp(b.minimum(tensor.data, 0.0)), 1.0))
    out_data = b.where(positive, tensor.data, exp_term)

    def backward(grad) -> None:
        tensor._accumulate(
            b.multiply(grad, b.where(positive, 1.0, b.add(exp_term, alpha))), owned=True
        )

    return Tensor._make(out_data, (tensor,), backward)


def gelu(tensor: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation)."""
    tensor = as_tensor(tensor)
    b = get_backend()
    x = tensor.data
    c = math.sqrt(2.0 / math.pi)
    inner = b.multiply(c, b.add(x, b.multiply(0.044715, b.power(x, 3))))
    tanh_inner = b.tanh(inner)
    out_data = b.multiply(b.multiply(0.5, x), b.add(1.0, tanh_inner))

    def backward(grad) -> None:
        sech2 = b.subtract(1.0, b.power(tanh_inner, 2))
        d_inner = b.multiply(c, b.add(1.0, b.multiply(3.0 * 0.044715, b.power(x, 2))))
        local = b.add(
            b.multiply(0.5, b.add(1.0, tanh_inner)),
            b.multiply(b.multiply(b.multiply(0.5, x), sech2), d_inner),
        )
        tensor._accumulate(b.multiply(grad, local), owned=True)

    return Tensor._make(out_data, (tensor,), backward)


def softplus(tensor: Tensor, beta: float = 1.0) -> Tensor:
    """``log(1 + exp(βx)) / β`` — a smooth ReLU; stable for large inputs."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    tensor = as_tensor(tensor)
    b = get_backend()
    scaled = b.multiply(beta, tensor.data)
    # log1p(exp(s)) = max(s, 0) + log1p(exp(-|s|)) avoids overflow; the
    # sigmoid below uses the same trick for its exp.
    out_data = b.divide(
        b.add(b.maximum(scaled, 0.0), b.log1p(b.exp(b.negative(b.abs(scaled))))), beta
    )
    exp_neg = b.exp(b.negative(b.abs(scaled)))
    sig = b.where(
        b.greater_equal(scaled, 0),
        b.divide(1.0, b.add(1.0, exp_neg)),
        b.divide(exp_neg, b.add(1.0, exp_neg)),
    )

    def backward(grad) -> None:
        tensor._accumulate(b.multiply(grad, sig), owned=True)

    return Tensor._make(out_data, (tensor,), backward)


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
    x, w = inputs.data, weight.data  # (batch, c_in, length), (c_out, c_in, kernel)
    out_data, saved = b.conv1d_apply(x, w, dilation, padding)
    if bias is not None:
        out_data = b.add(out_data, bias.data[None, :, None])

    parents: tuple[Tensor, ...] = (inputs, weight) if bias is None else (inputs, weight, bias)

    def backward(grad) -> None:
        # grad: (batch, c_out, out_len)
        grad_w, grad_x = b.conv1d_backward(grad, saved, x, w, dilation, padding)
        weight._accumulate(grad_w, owned=True)
        if bias is not None:
            bias._accumulate(b.sum(grad, axis=(0, 2)), owned=True)
        inputs._accumulate(grad_x, owned=True)

    return Tensor._make(out_data, parents, backward)
