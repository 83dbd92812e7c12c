"""Reverse-mode automatic differentiation on numpy arrays.

This subpackage replaces the PyTorch autograd dependency of the original
STSM implementation (see DESIGN.md, substitution table).  The public surface
mirrors the subset of framework functionality the paper's model needs:
tensors with ``backward()``, broadcasting elementwise math, matmul,
reductions, shape ops, softmax/dropout, and dilated 1-D convolution.
"""

from .grad_check import check_gradients, numerical_gradient
from .ops import (
    clip_values,
    concatenate,
    conv1d,
    dropout,
    leaky_relu,
    log_softmax,
    maximum,
    minimum,
    pad,
    softmax,
    stack,
    where,
)
from .tensor import Tensor, as_tensor, is_grad_enabled, no_grad

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
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
    "check_gradients",
    "numerical_gradient",
]
