"""Finite-difference gradient verification.

Used throughout the test suite to certify that every autograd op's backward
pass matches a central-difference numerical derivative.  This is the
correctness anchor for the whole neural substrate.

Both helpers run under the active backend; a test that certifies a
substituted backend wraps the call in :func:`repro.backend.use_backend`.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor

__all__ = ["numerical_gradient", "check_gradients"]


def numerical_gradient(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    wrt: int,
    eps: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient of ``sum(fn(*inputs))`` w.r.t. input ``wrt``."""
    target = inputs[wrt]
    grad = np.zeros(tuple(target.data.shape), dtype=np.float64)
    flat = target.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(int(flat.shape[0])):
        original = float(flat[i])
        flat[i] = original + eps
        upper = float(fn(*inputs).data.sum())
        flat[i] = original - eps
        lower = float(fn(*inputs).data.sum())
        flat[i] = original
        grad_flat[i] = (upper - lower) / (2.0 * eps)
    return grad


def check_gradients(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    atol: float = 1e-5,
    rtol: float = 1e-4,
    eps: float = 1e-6,
) -> None:
    """Assert that autograd gradients match numerical ones for all inputs.

    Raises ``AssertionError`` with a diagnostic message on mismatch.
    """
    for tensor in inputs:
        tensor.zero_grad()
    fn(*inputs).sum().backward()
    for index, tensor in enumerate(inputs):
        if not tensor.requires_grad:
            continue
        expected = numerical_gradient(fn, inputs, index, eps=eps)
        actual = (
            np.asarray(tensor.grad)
            if tensor.grad is not None
            else np.zeros(tuple(tensor.data.shape))
        )
        if not np.allclose(actual, expected, atol=atol, rtol=rtol):
            worst = np.abs(actual - expected).max()
            raise AssertionError(
                f"gradient mismatch for input {index}: max abs diff {worst:.3e}\n"
                f"autograd:\n{actual}\nnumerical:\n{expected}"
            )
