"""In-place backward composites match their chained form bit for bit.

``maximum_backward`` and ``sigmoid_backward`` write their later ufuncs
into buffers the composite just allocated.  The oracles below are the
chained, allocating expressions they replaced: the same ufuncs on the
same operands in the same order, so every result must agree down to NaN
payloads and the sign of zero.  0-d operands compute to numpy scalars,
which have no buffer, and keep the chained form.

``maximum_backward`` reads the forward's three bool masks, not the
operands; its oracle still compares the operands, on values that draw
NaN, ±inf and ±0, where a NaN makes every mask false and ±0 tie.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import mutually_broadcastable_shapes

from repro.autograd import Tensor, maximum
from repro.autograd.tensor import _unbroadcast
from repro.backend.numpy_ref import NumpyRefBackend

BACKEND = NumpyRefBackend()


def chained_maximum_backward(grad, a, b, a_shape, b_shape):
    dtype = grad.dtype
    a_wins = np.greater(a, b).astype(dtype)
    b_wins = np.greater(b, a).astype(dtype)
    tie = np.multiply(np.equal(a, b).astype(dtype), 0.5)
    grad_a = _unbroadcast(np.multiply(grad, np.add(a_wins, tie)), a_shape)
    grad_b = _unbroadcast(np.multiply(grad, np.add(b_wins, tie)), b_shape)
    return grad_a, grad_b


def masks(a, b):
    """What the taped ``maximum`` keeps for its adjoint."""
    return np.greater(a, b), np.greater(b, a), np.equal(a, b)


def chained_sigmoid_backward(grad, out):
    return np.multiply(np.multiply(grad, out), np.subtract(1.0, out))


def _values(rng, shape, dtype):
    """Small integers (so ties are common), scaled; a tenth each NaN and
    -0.0, a twentieth each +inf and -inf (the integers give +0.0)."""
    values = np.asarray(rng.integers(-2, 3, size=shape) * 10.0 ** rng.uniform(-3, 3))
    pick = rng.random(shape)
    values[pick < 0.1] = np.nan
    values[(pick >= 0.1) & (pick < 0.2)] = -0.0
    values[(pick >= 0.2) & (pick < 0.25)] = np.inf
    values[(pick >= 0.25) & (pick < 0.3)] = -np.inf
    return values.astype(dtype)


def _same_bits(new, old):
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape and new.dtype == old.dtype
    assert new.tobytes() == old.tobytes()


DTYPES = st.sampled_from([np.float64, np.float32])


@settings(max_examples=300, deadline=None)
@given(
    mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=3, max_side=3),
    DTYPES, DTYPES, DTYPES,
    st.integers(0, 2**32 - 1),
)
def test_maximum_backward_matches_chained_form(shapes, a_dtype, b_dtype, grad_dtype, seed):
    rng = np.random.default_rng(seed)
    a_shape, b_shape = shapes.input_shapes
    a = _values(rng, a_shape, a_dtype)
    b = _values(rng, b_shape, b_dtype)
    grad = _values(rng, shapes.result_shape, grad_dtype)
    got = BACKEND.maximum_backward(grad, masks(a, b), a_shape, b_shape, _unbroadcast)
    want = chained_maximum_backward(grad, a, b, a_shape, b_shape)
    for new, old in zip(got, want):
        _same_bits(new, old)


@settings(max_examples=200, deadline=None)
@given(
    mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=3, max_side=3),
    DTYPES, DTYPES,
    st.integers(0, 2**32 - 1),
)
def test_taped_maximum_matches_chained_form(shapes, a_dtype, b_dtype, seed):
    """The op's own masks, in its order: leaf grads are the oracle's bits."""
    rng = np.random.default_rng(seed)
    a_shape, b_shape = shapes.input_shapes
    a = Tensor(_values(rng, a_shape, a_dtype), requires_grad=True)
    b = Tensor(_values(rng, b_shape, b_dtype), requires_grad=True)
    out = maximum(a, b)
    grad = _values(rng, shapes.result_shape, out.dtype)
    want = chained_maximum_backward(grad, a.data, b.data, a_shape, b_shape)
    out.backward(grad)
    for leaf, old in zip((a, b), want):
        _same_bits(leaf.grad, np.asarray(old).astype(leaf.dtype))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(1, 4), min_size=0, max_size=3).map(tuple),
    DTYPES, DTYPES,
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_sigmoid_backward_matches_chained_form(shape, grad_dtype, out_dtype, strided, seed):
    rng = np.random.default_rng(seed)
    grad = _values(rng, shape, grad_dtype)
    out = BACKEND.sigmoid(_values(rng, shape, out_dtype) * 30.0)
    if strided and len(shape) >= 2:
        # A transposed view, as a taped transpose hands its gradient on.
        grad = np.ascontiguousarray(grad.T).T
    grad_before, out_before = np.array(grad, copy=True), np.array(out, copy=True)
    _same_bits(BACKEND.sigmoid_backward(grad, out), chained_sigmoid_backward(grad, out))
    # Neither operand is the buffer.
    _same_bits(grad, grad_before)
    _same_bits(out, out_before)


def test_composites_on_0d_operands_return_chained_scalars():
    grad, out = np.array(2.0), np.array(0.25)
    got = BACKEND.sigmoid_backward(grad, out)
    assert type(got) is type(chained_sigmoid_backward(grad, out))
    _same_bits(got, chained_sigmoid_backward(grad, out))

    a, b = np.array(1.0), np.array(1.0)
    for new, old in zip(
        BACKEND.maximum_backward(grad, masks(a, b), (), (), _unbroadcast),
        chained_maximum_backward(grad, a, b, (), ()),
    ):
        _same_bits(new, old)
