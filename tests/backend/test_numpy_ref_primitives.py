"""``NumpyRefBackend`` primitives and composites that the model code calls
but no other test names: conversions, in-place updates, comparisons,
the activation adjoints, the dropout mask, the layout a tape keeps in
place of an array, and the optimiser steps.

The adjoints are checked as vector-Jacobian products against central
differences of the forward; the optimiser steps against their textbook
update written out in numpy.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor
from repro.backend.numpy_ref import NumpyRefBackend

BACKEND = NumpyRefBackend()


def _vjp_by_differences(forward, x, grad, eps=1e-6):
    """``d/dx sum(grad * forward(x))`` by central differences."""
    out = np.zeros_like(x)
    flat, out_flat = x.reshape(-1), out.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        upper = float(np.sum(grad * forward(x)))
        flat[i] = original - eps
        lower = float(np.sum(grad * forward(x)))
        flat[i] = original
        out_flat[i] = (upper - lower) / (2 * eps)
    return out


@pytest.mark.parametrize(
    "dtype, expected",
    [
        (np.int32, np.float64),
        (np.int64, np.float64),
        (np.bool_, np.float64),
        (np.float32, np.float32),
        (np.float64, np.float64),
    ],
)
def test_to_float_array_promotes_only_non_float_dtypes(dtype, expected):
    data = np.array([0, 1, 1], dtype=dtype)
    converted = BACKEND.to_float_array(data)
    assert converted.dtype == expected
    np.testing.assert_array_equal(converted, data.astype(expected))


def test_to_float_array_keeps_float_input_without_copy():
    data = np.arange(4.0)
    assert BACKEND.to_float_array(data) is data


def test_copy_cast_never_aliases_its_input():
    data = np.arange(6.0).reshape(2, 3)
    copied = BACKEND.copy_cast(data, np.float64)
    copied[0, 0] = -1.0
    assert data[0, 0] == 0.0
    assert BACKEND.cast(data, np.float32).dtype == np.float32


@pytest.mark.parametrize(
    "name, expected",
    [("iadd", [3.0, 5.0]), ("isub", [-1.0, -1.0]), ("imul", [2.0, 6.0])],
)
def test_inplace_ops_update_and_return_their_first_operand(name, expected):
    a = np.array([1.0, 2.0])
    result = getattr(BACKEND, name)(a, np.array([2.0, 3.0]))
    assert result is a
    np.testing.assert_array_equal(a, expected)


@pytest.mark.parametrize(
    "name, reference",
    [
        ("greater_equal", np.greater_equal),
        ("less_equal", np.less_equal),
        ("logical_or", np.logical_or),
        ("logical_and", np.logical_and),
    ],
)
def test_comparisons_broadcast_like_numpy(name, reference):
    a = np.array([[0.0, 1.0, 2.0]])
    b = np.array([[1.0], [0.0]])
    np.testing.assert_array_equal(getattr(BACKEND, name)(a, b), reference(a, b))


def test_amin_reduces_with_keepdims():
    a = np.array([[3.0, -1.0], [2.0, 5.0]])
    assert BACKEND.amin(a) == -1.0
    np.testing.assert_array_equal(BACKEND.amin(a, axis=0, keepdims=True), [[2.0, -1.0]])


def test_expand_dims_and_broadcast_to_shapes():
    a = np.arange(3.0)
    assert BACKEND.expand_dims(a, 0).shape == (1, 3)
    view = BACKEND.broadcast_to(a, (4, 3))
    assert view.shape == (4, 3)
    np.testing.assert_array_equal(view[2], a)


def test_getitem_supports_fancy_and_slice_indices():
    a = np.arange(12.0).reshape(3, 4)
    np.testing.assert_array_equal(BACKEND.getitem(a, (slice(None), [0, 3])), a[:, [0, 3]])
    np.testing.assert_array_equal(BACKEND.getitem(a, (Ellipsis, slice(1, 3))), a[..., 1:3])


@st.composite
def strided_views(draw):
    """A float view of any rank up to 4: stepped or reversed slices,
    permuted axes, sometimes a stride-0 broadcast axis, sides of 1 kept."""
    shape = tuple(draw(st.lists(st.integers(1, 4), max_size=4)))
    steps = [draw(st.sampled_from([1, 2, -1, -2])) for _ in shape]
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    base = np.arange(float(np.prod(shape) * 2 ** len(shape)), dtype=dtype)
    view = base.reshape([2 * n for n in shape])[tuple(slice(None, None, k) for k in steps)]
    view = view[tuple(slice(0, n) for n in shape)].transpose(draw(st.permutations(range(len(shape)))))
    if view.ndim and draw(st.booleans()):
        view = np.broadcast_to(view[..., :1], view.shape)
    return view


@settings(max_examples=200, deadline=None)
@given(strided_views())
# Fortran-ordered with a side of 1: numpy gives that axis its F stride.
@example(np.arange(6.0).reshape(3, 1, 2).T)
def test_zeros_laid_out_is_zeros_like_without_the_array(view):
    want = np.zeros_like(view)
    got = BACKEND.zeros_laid_out(BACKEND.layout_of(view))
    assert (got.shape, got.dtype, got.strides) == (want.shape, want.dtype, want.strides)
    assert not got.any()


@settings(max_examples=100, deadline=None)
@given(strided_views())
def test_getitem_adjoint_is_laid_out_like_its_input(view):
    """The tape keeps the input's layout, not the input: the adjoint
    scatters into zeros with ``zeros_like(input)``'s strides."""
    x = Tensor(view, requires_grad=True)
    index = (Ellipsis, slice(0, 1)) if view.ndim else ()
    x[index].backward(np.ones_like(view[index]))
    want = np.zeros_like(view)
    want[index] = 1.0
    assert x.grad.strides == want.strides
    assert x.grad.tobytes() == want.tobytes()


def test_scatter_add_accumulates_repeated_indices():
    target = np.zeros((3, 2))
    BACKEND.scatter_add(target, np.array([0, 2, 0]), np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    np.testing.assert_array_equal(target, [[6.0, 8.0], [0.0, 0.0], [3.0, 4.0]])


def test_tanh_backward_is_the_tanh_vjp():
    rng = np.random.default_rng(0)
    x, grad = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    got = BACKEND.tanh_backward(grad, np.tanh(x))
    np.testing.assert_allclose(got, _vjp_by_differences(np.tanh, x, grad), atol=1e-7)


def test_relu_backward_passes_gradient_only_where_input_was_positive():
    x = np.array([-2.0, -0.0, 0.0, 0.5, 3.0])
    out, mask = BACKEND.relu(x)
    np.testing.assert_array_equal(out, [0.0, 0.0, 0.0, 0.5, 3.0])
    grad = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    np.testing.assert_array_equal(BACKEND.relu_backward(grad, mask), [0.0, 0.0, 0.0, 4.0, 5.0])


@pytest.mark.parametrize("axis", [0, -1])
def test_softmax_backward_is_the_softmax_vjp(axis):
    rng = np.random.default_rng(1)
    x, grad = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    got = BACKEND.softmax_backward(grad, BACKEND.softmax(x, axis=axis), axis=axis)
    want = _vjp_by_differences(lambda v: BACKEND.softmax(v, axis=axis), x, grad)
    np.testing.assert_allclose(got, want, atol=1e-7)


@pytest.mark.parametrize("axis", [0, -1])
def test_log_softmax_backward_is_the_log_softmax_vjp(axis):
    rng = np.random.default_rng(2)
    x, grad = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    _, soft = BACKEND.log_softmax(x, axis=axis)
    got = BACKEND.log_softmax_backward(grad, soft, axis=axis)
    want = _vjp_by_differences(lambda v: BACKEND.log_softmax(v, axis=axis)[0], x, grad)
    np.testing.assert_allclose(got, want, atol=1e-7)


def test_dropout_mask_holds_zero_or_inverse_keep_at_the_keep_rate():
    keep = 0.8
    kept = BACKEND.dropout_mask(np.random.default_rng(3), (200, 50), keep)
    assert kept.dtype == np.bool_
    mask = BACKEND.dropout_scale(kept, keep, np.float32)
    assert mask.dtype == np.float32
    assert set(np.unique(mask).tolist()) == {0.0, np.float32(1.0 / keep)}
    assert abs((mask > 0).mean() - keep) < 0.02


def test_dropout_mask_is_reproducible_from_the_generator_seed():
    first = BACKEND.dropout_mask(np.random.default_rng(4), (5, 7), 0.5)
    second = BACKEND.dropout_mask(np.random.default_rng(4), (5, 7), 0.5)
    assert first.tobytes() == second.tobytes()


def test_sgd_step_without_momentum_moves_against_the_gradient():
    param, grad = np.array([1.0, -2.0]), np.array([0.5, -1.0])
    BACKEND.sgd_step(param, grad, None, lr=0.1, momentum=0.0)
    np.testing.assert_array_equal(param, [1.0 - 0.1 * 0.5, -2.0 + 0.1 * 1.0])


def test_sgd_step_with_momentum_accumulates_velocity():
    param, velocity = np.array([1.0]), np.zeros(1)
    grad = np.array([1.0])
    for _ in range(2):
        BACKEND.sgd_step(param, grad, velocity, lr=0.1, momentum=0.9)
    # v1 = 1, v2 = 0.9 * 1 + 1 = 1.9; param = 1 - 0.1 * (1 + 1.9)
    np.testing.assert_allclose(velocity, [1.9])
    np.testing.assert_allclose(param, [1.0 - 0.1 * 2.9])


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_adam_step_matches_the_bias_corrected_update(weight_decay):
    rng = np.random.default_rng(5)
    param = rng.normal(size=4)
    expected = param.copy()
    m, v = np.zeros(4), np.zeros(4)
    m_ref, v_ref = np.zeros(4), np.zeros(4)
    lr, beta1, beta2, eps = 1e-2, 0.9, 0.999, 1e-8
    for step in range(1, 4):
        grad = rng.normal(size=4)
        c1, c2 = 1 - beta1**step, 1 - beta2**step
        BACKEND.adam_step(param, grad, m, v, lr, beta1, beta2, eps, c1, c2, weight_decay)
        g = grad + weight_decay * expected
        m_ref = beta1 * m_ref + (1 - beta1) * g
        v_ref = beta2 * v_ref + (1 - beta2) * g * g
        expected = expected - lr * (m_ref / c1) / (np.sqrt(v_ref / c2) + eps)
    np.testing.assert_allclose(param, expected, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(m, m_ref, rtol=1e-12)
    np.testing.assert_allclose(v, v_ref, rtol=1e-12)


def test_grad_norm_squared_is_a_python_float_sum_of_squares():
    value = BACKEND.grad_norm_squared(np.array([[3.0], [4.0]]))
    assert isinstance(value, float)
    assert value == 25.0


def test_scale_inplace_rescales_the_same_buffer():
    base = np.array([8.0, 2.0, -4.0])
    assert BACKEND.scale_inplace(base[1:], 0.25) is None
    np.testing.assert_array_equal(base, [8.0, 0.5, -1.0])
