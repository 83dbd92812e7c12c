"""Backward closures compute no adjoint for a parent without a gradient.

``add``, ``sub``, ``mul``, ``truediv``, ``matmul`` (every rank path) and
``where`` skip the adjoint of a parent with ``requires_grad=False``; the
parents that do require one must get exactly the bits the unguarded
closures gave.  The oracle below is those closures' arithmetic as it
stood before the guards, written out in numpy: it always forms both
adjoints.  Inputs mix broadcasting, 0-d operands, NaN and signed zeros,
and the comparison is on raw bytes, so the sign of a zero counts.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import mutually_broadcastable_shapes

from repro.autograd import Tensor, where
from repro.autograd.tensor import _unbroadcast
from repro.backend.numpy_ref import NumpyRefBackend


def oracle_add(grad, a, b, cond=None):
    return _unbroadcast(grad, a.shape), _unbroadcast(grad, b.shape)


def oracle_sub(grad, a, b, cond=None):
    return _unbroadcast(grad, a.shape), _unbroadcast(np.negative(grad), b.shape)


def oracle_mul(grad, a, b, cond=None):
    return (
        _unbroadcast(np.multiply(grad, b), a.shape),
        _unbroadcast(np.multiply(grad, a), b.shape),
    )


def oracle_truediv(grad, a, b, cond=None):
    return (
        _unbroadcast(np.divide(grad, b), a.shape),
        _unbroadcast(np.divide(np.multiply(np.negative(grad), a), b ** 2), b.shape),
    )


def oracle_where(grad, a, b, cond):
    return (
        _unbroadcast(np.multiply(grad, cond), a.shape),
        _unbroadcast(np.multiply(grad, np.logical_not(cond)), b.shape),
    )


def oracle_matmul(grad, lhs, rhs, cond=None):
    if lhs.ndim == 1 and rhs.ndim == 1:
        return np.multiply(grad, rhs), np.multiply(grad, lhs)
    if lhs.ndim == 1:
        # Before the guards this path multiplied by ``rhs`` transposed:
        # wrong for a square ``rhs``, a broadcast error otherwise.
        grad_a = np.sum(
            np.multiply(grad[..., None, :], rhs),
            axis=tuple(range(grad.ndim - 1)) + (-1,),
        )
        return (
            _unbroadcast(grad_a.reshape(lhs.shape), lhs.shape),
            _unbroadcast(np.multiply(lhs[:, None], grad[..., None, :]), rhs.shape),
        )
    if rhs.ndim == 1:
        grad_b = (np.swapaxes(lhs, -1, -2) @ grad[..., :, None])[..., 0]
        if grad_b.ndim > 1:
            grad_b = np.sum(grad_b, axis=tuple(range(grad_b.ndim - 1)))
        return _unbroadcast(np.multiply(grad[..., :, None], rhs), lhs.shape), grad_b
    grad_a = grad @ np.swapaxes(rhs, -1, -2)
    grad_b = np.swapaxes(lhs, -1, -2) @ grad
    return _unbroadcast(grad_a, lhs.shape), _unbroadcast(grad_b, rhs.shape)


OPS = {
    "add": (lambda x, y, cond: x + y, oracle_add),
    "sub": (lambda x, y, cond: x - y, oracle_sub),
    "mul": (lambda x, y, cond: x * y, oracle_mul),
    "truediv": (lambda x, y, cond: x / y, oracle_truediv),
    "where": (lambda x, y, cond: where(cond, x, y), oracle_where),
    "matmul": (lambda x, y, cond: x @ y, oracle_matmul),
}

#: (a requires grad, b requires grad): every combination that tapes.
GRAD_FLAGS = [(True, True), (True, False), (False, True)]


def _values(rng, shape, dtype):
    """Normal draws at a random scale; about a tenth each NaN, +0.0, -0.0."""
    values = np.asarray(rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3))
    pick = rng.random(shape)
    values[pick < 0.1] = np.nan
    values[(pick >= 0.1) & (pick < 0.2)] = 0.0
    values[(pick >= 0.2) & (pick < 0.3)] = -0.0
    return values.astype(dtype)


@st.composite
def elementwise_cases(draw):
    op = draw(st.sampled_from(["add", "sub", "mul", "truediv", "where"]))
    shapes = draw(mutually_broadcastable_shapes(num_shapes=3, min_dims=0, max_dims=3, max_side=3))
    a_shape, b_shape, cond_shape = shapes.input_shapes
    return op, a_shape, b_shape, cond_shape


@st.composite
def matmul_cases(draw):
    m, k, n = (draw(st.integers(1, 3)) for _ in range(3))
    batch = draw(mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=2, max_side=3))
    a_batch, b_batch = batch.input_shapes
    kind = draw(st.sampled_from(["vv", "vm", "mv", "mm"]))
    a_shape = (k,) if kind[0] == "v" else a_batch + (m, k)
    b_shape = (k,) if kind[1] == "v" else b_batch + (k, n)
    return "matmul", a_shape, b_shape, ()


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(elementwise_cases(), matmul_cases()),
    st.sampled_from(GRAD_FLAGS),
    st.sampled_from([np.float64, np.float32]),
    st.sampled_from([np.float64, np.float32]),
    st.integers(0, 2**32 - 1),
)
def test_guarded_closures_match_unguarded_bitwise(case, flags, a_dtype, b_dtype, seed):
    op, a_shape, b_shape, cond_shape = case
    rng = np.random.default_rng(seed)
    a = _values(rng, a_shape, a_dtype)
    b = _values(rng, b_shape, b_dtype)
    cond = rng.random(cond_shape) < 0.5
    forward, oracle = OPS[op]

    x = Tensor(a, requires_grad=flags[0])
    y = Tensor(b, requires_grad=flags[1])
    out = forward(x, y, cond)
    seed_grad = _values(rng, out.shape, out.dtype)
    out.backward(seed_grad)

    expected = oracle(np.array(seed_grad, dtype=out.dtype), x.data, y.data, cond)
    for tensor, wanted, adj in zip((x, y), flags, expected):
        if not wanted:
            assert tensor.grad is None
            continue
        adj = np.asarray(adj, dtype=tensor.dtype)
        assert tensor.grad.shape == tensor.shape == adj.shape
        assert tensor.grad.dtype == adj.dtype
        assert tensor.grad.tobytes() == adj.tobytes()


class _CountingMatmul(NumpyRefBackend):
    calls = 0

    def matmul(self, a, b):
        type(self).calls += 1
        return super().matmul(a, b)


def test_constant_adjacency_matmul_forms_one_adjoint(monkeypatch):
    """GCN's ``adjacency @ features``: the adjacency's adjoint is never formed."""
    import repro.autograd.tensor as tensor_module

    backend = _CountingMatmul()
    monkeypatch.setattr(tensor_module, "get_backend", lambda: backend)
    rng = np.random.default_rng(0)
    adjacency = Tensor(rng.random((5, 5)))
    features = Tensor(rng.standard_normal((2, 3, 5, 4)), requires_grad=True)
    out = adjacency @ features
    _CountingMatmul.calls = 0
    out.backward(np.ones(out.shape))
    assert _CountingMatmul.calls == 1
    assert adjacency.grad is None and features.grad is not None
