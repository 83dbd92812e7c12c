"""The reference dilated-conv kernels against the tap-gather + einsum oracle.

``ArrayBackend.conv1d_apply``/``conv1d_backward`` build the tap matrix
with strided slab copies and call the two GEMMs of numpy's einsum plan
directly.  The oracle below is the formulation they replaced: a fancy-
index gather of ``cols[b, c, k, t]``, ``einsum(..., optimize=True)`` and a
duplicate-safe ``np.add.at`` scatter.  With every dimension >= 2 both
make the same BLAS calls on the same operands, so they must agree bit
for bit; a singleton dimension lets einsum pick other calls, which only
reorders float sums.

The backend is constructed explicitly, so this runs identically whatever
backend the suite activates.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor, conv1d
from repro.backend.numpy_ref import NumpyRefBackend

BACKEND = NumpyRefBackend()


def _tap_index(kernel, dilation, out_len):
    return np.arange(out_len)[None, :] + dilation * np.arange(kernel)[:, None]


def oracle_apply(padded, weight, dilation, out_len):
    cols = padded[:, :, _tap_index(weight.shape[2], dilation, out_len)]
    return np.einsum("bckt,ock->bot", cols, weight, optimize=True), cols


def oracle_backward(grad, cols, padded, weight, dilation):
    grad_weight = np.einsum("bot,bckt->ock", grad, cols, optimize=True)
    grad_cols = np.einsum("bot,ock->bckt", grad, weight, optimize=True)
    grad_padded = np.zeros_like(padded)
    index = (slice(None), slice(None), _tap_index(weight.shape[2], dilation, grad.shape[-1]))
    np.add.at(grad_padded, index, grad_cols)
    return grad_weight, grad_padded


def _values(rng, shape, dtype):
    """Normal draws at a random scale, with about a fifth set to +0.0 or -0.0."""
    values = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3)
    zero = rng.random(shape) < 0.2
    values[zero] = np.copysign(0.0, rng.standard_normal(int(zero.sum())))
    return values.astype(dtype)


@st.composite
def conv_cases(draw):
    batch, c_in, out_len, kernel, dilation, c_out = (draw(st.integers(1, 4)) for _ in range(6))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    length = out_len + (kernel - 1) * dilation
    padded = _values(rng, (batch, c_in, length), dtype)
    if draw(st.booleans()):
        # A non-contiguous input, as a transposed tensor's data would be.
        padded = np.ascontiguousarray(padded.transpose(0, 2, 1)).transpose(0, 2, 1)
    weight = _values(rng, (c_out, c_in, kernel), dtype)
    grad = _values(rng, (batch, c_out, out_len), dtype)
    return padded, weight, grad, dilation, out_len


def _assert_matches(new, old, bound, bitwise):
    assert new.dtype == old.dtype
    assert new.shape == old.shape
    if bitwise:
        assert np.array_equal(new, old)
        # Same bits down to the sign of zero.
        assert np.array_equal(np.signbit(new), np.signbit(old))
    else:
        # Any summation order is within n * eps of the sum of |terms|.
        rtol = 1e-12 if new.dtype == np.float64 else 1e-5
        assert np.all(np.abs(new - old) <= rtol * bound)


@settings(max_examples=300, deadline=None)
@given(conv_cases())
def test_conv1d_matches_gather_einsum_scatter(case):
    padded, weight, grad, dilation, out_len = case
    bitwise = min(*padded.shape, *weight.shape, out_len) >= 2

    out, saved = BACKEND.conv1d_apply(padded, weight, dilation, 0)
    ref_out, ref_cols = oracle_apply(padded, weight, dilation, out_len)
    abs_out, abs_cols = oracle_apply(np.abs(padded), np.abs(weight), dilation, out_len)
    _assert_matches(out, ref_out, abs_out, bitwise)

    grad_weight, grad_padded = BACKEND.conv1d_backward(grad, saved, padded, weight, dilation, 0)
    ref_gw, ref_gp = oracle_backward(grad, ref_cols, padded, weight, dilation)
    abs_gw, abs_gp = oracle_backward(np.abs(grad), abs_cols, np.abs(padded), np.abs(weight), dilation)
    _assert_matches(grad_weight, ref_gw, abs_gw, bitwise)
    _assert_matches(grad_padded, ref_gp, abs_gp, bitwise)


def test_conv1d_shipped_tcn_shape_is_bitwise():
    """The serving-path shape (kernel 3, hidden 16, dilation 2) is bit-exact."""
    rng = np.random.default_rng(0)
    batch, c_in, c_out, kernel, dilation, out_len = 288, 16, 16, 3, 2, 12
    padded = rng.normal(size=(batch, c_in, out_len + (kernel - 1) * dilation))
    weight = rng.normal(size=(c_out, c_in, kernel))
    grad = rng.normal(size=(batch, c_out, out_len))

    out, saved = BACKEND.conv1d_apply(padded, weight, dilation, 0)
    ref_out, ref_cols = oracle_apply(padded, weight, dilation, out_len)
    assert np.array_equal(out, ref_out)
    assert out.strides == ref_out.strides
    for new, old in zip(
        BACKEND.conv1d_backward(grad, saved, padded, weight, dilation, 0),
        oracle_backward(grad, ref_cols, padded, weight, dilation),
    ):
        assert np.array_equal(new, old)


# ----------------------------------------------------------------------
# Padding: the kernels read and write only each tap's in-range span.
# The oracle is the pre-change path: ``np.pad`` the input, run the
# kernels on the padded array, and slice the padding's adjoint off.
# ----------------------------------------------------------------------
def padded_oracle_apply(padded, weight, dilation, out_len):
    batch, c_in, _ = padded.shape
    c_out, _, kernel = weight.shape
    taps = np.zeros((c_in, kernel, batch, out_len), dtype=padded.dtype)
    for k in range(kernel):
        slab = padded[..., k * dilation:k * dilation + out_len]
        np.copyto(taps[:, k], slab.transpose(1, 0, 2))
    cols = taps.reshape(c_in * kernel, batch * out_len)
    out = weight.reshape(c_out, c_in * kernel) @ cols
    return out.reshape(c_out, batch, out_len).transpose(1, 0, 2), cols


def padded_oracle_backward(grad, cols, padded, weight, dilation):
    batch, c_out, out_len = grad.shape
    _, c_in, kernel = weight.shape
    grad_rows = grad.transpose(0, 2, 1).reshape(batch * out_len, c_out)
    grad_weight = (cols @ grad_rows).reshape(c_in, kernel, c_out).transpose(2, 0, 1)
    weight_rows = weight.transpose(1, 2, 0).reshape(c_in * kernel, c_out)
    grad_mat = grad.transpose(1, 0, 2).reshape(c_out, batch * out_len)
    grad_cols = (weight_rows @ grad_mat).reshape(c_in, kernel, batch, out_len)
    grad_padded = np.zeros_like(padded)
    for k in range(kernel):
        grad_padded[..., k * dilation:k * dilation + out_len] += grad_cols[:, k].transpose(1, 0, 2)
    return grad_weight, grad_padded


def padded_oracle(inputs, weight, grad, dilation, padding):
    padded = np.pad(inputs, ((0, 0), (0, 0), (padding, padding))) if padding else inputs
    out_len = grad.shape[-1]
    out, cols = padded_oracle_apply(padded, weight, dilation, out_len)
    grad_weight, grad_padded = padded_oracle_backward(grad, cols, padded, weight, dilation)
    if padding:
        grad_padded = grad_padded[:, :, padding:-padding]
    return out, grad_weight, grad_padded


@st.composite
def padded_conv_cases(draw):
    batch, c_in, c_out, kernel, dilation = (draw(st.integers(1, 4)) for _ in range(5))
    padding = draw(st.integers(0, (kernel - 1) * dilation))
    shortest = max(1, (kernel - 1) * dilation + 1 - 2 * padding)
    length = draw(st.integers(shortest, shortest + 8))
    out_len = length + 2 * padding - (kernel - 1) * dilation
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inputs = _values(rng, (batch, c_in, length), dtype)
    if draw(st.booleans()):
        inputs[rng.random(inputs.shape) < 0.1] = np.nan
    weight = _values(rng, (c_out, c_in, kernel), dtype)
    grad = _values(rng, (batch, c_out, out_len), dtype)
    return inputs, weight, grad, dilation, padding


def _same_bits(new, old):
    assert new.shape == old.shape and new.dtype == old.dtype
    assert np.ascontiguousarray(new).tobytes() == np.ascontiguousarray(old).tobytes()


@settings(max_examples=300, deadline=None)
@given(padded_conv_cases())
def test_padded_conv1d_matches_pad_then_slice(case):
    """Every padding in ``0..(K-1)*d``: output and both adjoints, bitwise."""
    inputs, weight, grad, dilation, padding = case
    ref_out, ref_gw, ref_gx = padded_oracle(inputs, weight, grad, dilation, padding)

    out, saved = BACKEND.conv1d_apply(inputs, weight, dilation, padding)
    grad_weight, grad_inputs = BACKEND.conv1d_backward(
        grad, saved, inputs, weight, dilation, padding
    )
    _same_bits(out, ref_out)
    _same_bits(grad_weight, ref_gw)
    _same_bits(grad_inputs, ref_gx)

    # The taped op, which no longer pads, gives the same bits too.
    x = Tensor(inputs, requires_grad=True)
    w = Tensor(weight, requires_grad=True)
    taped = conv1d(x, w, dilation=dilation, padding=padding)
    taped.backward(grad)
    _same_bits(taped.data, ref_out)
    _same_bits(w.grad, ref_gw)
    _same_bits(x.grad, ref_gx)
