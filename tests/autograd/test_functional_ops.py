"""Gradient and behaviour tests for the functional ops (concat, softmax,
conv1d, dropout, ...)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    check_gradients,
    clip_values,
    concatenate,
    conv1d,
    dropout,
    log_softmax,
    maximum,
    minimum,
    pad,
    softmax,
    stack,
    where,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def _t(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


class TestConcatStack:
    def test_concatenate_axis0(self, rng):
        check_gradients(lambda a, b: concatenate([a, b], axis=0), [_t(rng, 2, 3), _t(rng, 4, 3)])

    def test_concatenate_axis_last(self, rng):
        check_gradients(lambda a, b: concatenate([a, b], axis=-1), [_t(rng, 2, 3), _t(rng, 2, 2)])

    def test_stack(self, rng):
        check_gradients(lambda a, b: stack([a, b], axis=1), [_t(rng, 2, 3), _t(rng, 2, 3)])

    def test_stack_shapes(self, rng):
        out = stack([_t(rng, 2, 3)] * 4, axis=0)
        assert out.shape == (4, 2, 3)


class TestSelection:
    def test_where(self, rng):
        cond = rng.random((3, 4)) > 0.5
        check_gradients(lambda a, b: where(cond, a, b), [_t(rng, 3, 4), _t(rng, 3, 4)])

    def test_maximum(self, rng):
        check_gradients(lambda a, b: maximum(a, b), [_t(rng, 3, 4), _t(rng, 3, 4)])

    def test_minimum(self, rng):
        check_gradients(lambda a, b: minimum(a, b), [_t(rng, 3, 4), _t(rng, 3, 4)])

    def test_maximum_tie_splits_gradient(self):
        a = Tensor(np.ones((2,)), requires_grad=True)
        b = Tensor(np.ones((2,)), requires_grad=True)
        maximum(a, b).sum().backward()
        assert np.allclose(a.grad, [0.5, 0.5])
        assert np.allclose(b.grad, [0.5, 0.5])

    def test_clip_values(self, rng):
        a = Tensor(rng.normal(size=(4, 4)) * 2, requires_grad=True)
        check_gradients(lambda x: clip_values(x, -1.0, 1.0), [a])

    def test_pad(self, rng):
        check_gradients(lambda a: pad(a, ((1, 2), (0, 1))), [_t(rng, 3, 4)])


class TestSoftmax:
    def test_softmax_grad(self, rng):
        check_gradients(lambda a: softmax(a, axis=-1), [_t(rng, 3, 5)])

    def test_softmax_rows_sum_to_one(self, rng):
        out = softmax(_t(rng, 3, 5), axis=-1)
        assert np.allclose(out.numpy().sum(axis=-1), 1.0)

    def test_softmax_handles_large_values(self):
        out = softmax(Tensor(np.array([[1000.0, 1000.0]])), axis=-1)
        assert np.allclose(out.numpy(), [[0.5, 0.5]])

    def test_log_softmax_grad(self, rng):
        check_gradients(lambda a: log_softmax(a, axis=1), [_t(rng, 4, 3)])

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = _t(rng, 3, 4)
        assert np.allclose(log_softmax(x, axis=-1).numpy(), np.log(softmax(x, axis=-1).numpy()))


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        x = _t(rng, 5, 5)
        out = dropout(x, 0.5, training=False, rng=np.random.default_rng(0))
        assert out is x

    def test_zero_rate_is_identity(self, rng):
        x = _t(rng, 5, 5)
        out = dropout(x, 0.0, training=True, rng=np.random.default_rng(0))
        assert out is x

    def test_preserves_expectation(self):
        x = Tensor(np.ones((200, 200)))
        out = dropout(x, 0.3, training=True, rng=np.random.default_rng(0))
        assert abs(out.numpy().mean() - 1.0) < 0.02

    def test_invalid_rate_rejected(self, rng):
        with pytest.raises(ValueError):
            dropout(_t(rng, 2), 1.0, training=True, rng=np.random.default_rng(0))

    def test_gradient_respects_mask(self):
        x = Tensor(np.ones((50,)), requires_grad=True)
        out = dropout(x, 0.5, training=True, rng=np.random.default_rng(3))
        out.sum().backward()
        dropped = out.numpy() == 0
        assert np.all(x.grad[dropped] == 0)
        assert np.all(x.grad[~dropped] == 2.0)


class TestConv1d:
    def test_grad_basic(self, rng):
        check_gradients(
            lambda x, w, b: conv1d(x, w, b),
            [_t(rng, 2, 3, 7), _t(rng, 4, 3, 3), _t(rng, 4)],
        )

    def test_grad_dilated_padded(self, rng):
        check_gradients(
            lambda x, w: conv1d(x, w, dilation=2, padding=2),
            [_t(rng, 2, 2, 9), _t(rng, 3, 2, 3)],
        )

    def test_same_padding_preserves_length(self, rng):
        x = _t(rng, 1, 2, 10)
        w = _t(rng, 2, 2, 3)
        out = conv1d(x, w, padding=1)
        assert out.shape == (1, 2, 10)

    def test_output_length_formula(self, rng):
        out = conv1d(_t(rng, 1, 1, 10), _t(rng, 1, 1, 3), dilation=2, padding=0)
        assert out.shape == (1, 1, 6)  # 10 - (3-1)*2 = 6

    def test_channel_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            conv1d(_t(rng, 1, 3, 8), _t(rng, 2, 4, 3))

    def test_too_small_input_rejected(self, rng):
        with pytest.raises(ValueError):
            conv1d(_t(rng, 1, 1, 3), _t(rng, 1, 1, 3), dilation=4)

    def test_matches_manual_convolution(self):
        x = Tensor(np.arange(6, dtype=float).reshape(1, 1, 6))
        w = Tensor(np.array([[[1.0, 0.0, -1.0]]]))
        out = conv1d(x, w).numpy()
        # out[t] = x[t] - x[t+2] = -2 everywhere
        assert np.allclose(out, np.full((1, 1, 4), -2.0))
