"""Gradient correctness for every elementwise/matmul/reduction op.

Each test composes the op into a scalar via ``sum`` and compares the
autograd gradient against central finite differences.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients, no_grad


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def _t(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


class TestElementwise:
    def test_add(self, rng):
        check_gradients(lambda a, b: a + b, [_t(rng, 3, 4), _t(rng, 3, 4)])

    def test_add_broadcast(self, rng):
        check_gradients(lambda a, b: a + b, [_t(rng, 3, 4), _t(rng, 4)])

    def test_add_broadcast_middle(self, rng):
        check_gradients(lambda a, b: a + b, [_t(rng, 2, 3, 4), _t(rng, 2, 1, 4)])

    def test_sub(self, rng):
        check_gradients(lambda a, b: a - b, [_t(rng, 3, 4), _t(rng, 3, 4)])

    def test_rsub_scalar(self, rng):
        check_gradients(lambda a: 2.0 - a, [_t(rng, 3)])

    def test_mul(self, rng):
        check_gradients(lambda a, b: a * b, [_t(rng, 3, 4), _t(rng, 3, 4)])

    def test_mul_broadcast(self, rng):
        check_gradients(lambda a, b: a * b, [_t(rng, 2, 3, 4), _t(rng, 1, 3, 1)])

    def test_div(self, rng):
        a = _t(rng, 3, 4)
        b = Tensor(rng.uniform(0.5, 2.0, size=(3, 4)), requires_grad=True)
        check_gradients(lambda x, y: x / y, [a, b])

    def test_neg(self, rng):
        check_gradients(lambda a: -a, [_t(rng, 5)])

    def test_pow(self, rng):
        a = Tensor(rng.uniform(0.5, 2.0, size=(3, 4)), requires_grad=True)
        check_gradients(lambda x: x ** 3, [a])

    def test_pow_tensor_exponent_rejected(self, rng):
        with pytest.raises(TypeError):
            _t(rng, 2) ** _t(rng, 2)


class TestTranscendental:
    def test_exp(self, rng):
        check_gradients(lambda a: a.exp(), [_t(rng, 3, 4)])

    def test_log(self, rng):
        a = Tensor(rng.uniform(0.5, 3.0, size=(3, 4)), requires_grad=True)
        check_gradients(lambda x: x.log(), [a])

    def test_sqrt(self, rng):
        a = Tensor(rng.uniform(0.5, 3.0, size=(4,)), requires_grad=True)
        check_gradients(lambda x: x.sqrt(), [a])

    def test_abs(self, rng):
        a = Tensor(rng.normal(size=(3, 4)) + 0.1, requires_grad=True)
        check_gradients(lambda x: x.abs(), [a])

    def test_sigmoid(self, rng):
        check_gradients(lambda a: a.sigmoid(), [_t(rng, 3, 4)])

    def test_tanh(self, rng):
        check_gradients(lambda a: a.tanh(), [_t(rng, 3, 4)])

    def test_relu(self, rng):
        a = Tensor(rng.normal(size=(3, 4)) + 0.05, requires_grad=True)
        check_gradients(lambda x: x.relu(), [a])


class TestMatmul:
    def test_2d(self, rng):
        check_gradients(lambda a, b: a @ b, [_t(rng, 3, 4), _t(rng, 4, 5)])

    def test_batched(self, rng):
        check_gradients(lambda a, b: a @ b, [_t(rng, 2, 3, 4), _t(rng, 2, 4, 5)])

    def test_broadcast_left(self, rng):
        # (N, N) @ (B, N, C): the adjacency-times-features pattern of the GCN.
        check_gradients(lambda a, b: a @ b, [_t(rng, 4, 4), _t(rng, 2, 4, 3)])

    def test_broadcast_left_4d(self, rng):
        check_gradients(lambda a, b: a @ b, [_t(rng, 4, 4), _t(rng, 2, 3, 4, 2)])

    def test_vector_vector(self, rng):
        check_gradients(lambda a, b: a @ b, [_t(rng, 5), _t(rng, 5)])

    def test_matrix_vector(self, rng):
        check_gradients(lambda a, b: a @ b, [_t(rng, 3, 5), _t(rng, 5)])

    def test_vector_matrix(self, rng):
        # The vector's adjoint once multiplied by the matrix transposed:
        # wrong for a square matrix, a broadcast error otherwise.
        check_gradients(lambda a, b: a @ b, [_t(rng, 4), _t(rng, 4, 4)])
        check_gradients(lambda a, b: a @ b, [_t(rng, 3), _t(rng, 3, 5)])

    def test_vector_batched_matrix(self, rng):
        check_gradients(lambda a, b: a @ b, [_t(rng, 3), _t(rng, 2, 3, 4)])


class TestReductions:
    def test_sum_all(self, rng):
        check_gradients(lambda a: a.sum(), [_t(rng, 3, 4)])

    def test_sum_axis(self, rng):
        check_gradients(lambda a: a.sum(axis=1), [_t(rng, 3, 4)])

    def test_sum_axis_keepdims(self, rng):
        check_gradients(lambda a: a.sum(axis=0, keepdims=True), [_t(rng, 3, 4)])

    def test_sum_tuple_axis(self, rng):
        check_gradients(lambda a: a.sum(axis=(0, 2)), [_t(rng, 2, 3, 4)])

    def test_mean(self, rng):
        check_gradients(lambda a: a.mean(), [_t(rng, 3, 4)])

    def test_mean_axis(self, rng):
        check_gradients(lambda a: a.mean(axis=-1, keepdims=True), [_t(rng, 3, 4)])

    def test_max_all(self, rng):
        check_gradients(lambda a: a.max(), [_t(rng, 3, 4)])

    def test_max_axis(self, rng):
        check_gradients(lambda a: a.max(axis=1), [_t(rng, 3, 4)])

    def test_min_axis(self, rng):
        check_gradients(lambda a: a.min(axis=0), [_t(rng, 3, 4)])

    def test_max_gradient_splits_ties(self):
        a = Tensor(np.array([[1.0, 1.0, 0.0]]), requires_grad=True)
        a.max(axis=1).sum().backward()
        assert np.allclose(a.grad, [[0.5, 0.5, 0.0]])


class TestShape:
    def test_reshape(self, rng):
        check_gradients(lambda a: a.reshape(4, 3), [_t(rng, 3, 4)])

    def test_reshape_tuple(self, rng):
        check_gradients(lambda a: a.reshape((2, 6)), [_t(rng, 3, 4)])

    def test_transpose_default(self, rng):
        check_gradients(lambda a: a.transpose(), [_t(rng, 3, 4)])

    def test_transpose_axes(self, rng):
        check_gradients(lambda a: a.transpose(1, 2, 0), [_t(rng, 2, 3, 4)])

    def test_swapaxes(self, rng):
        check_gradients(lambda a: a.swapaxes(0, 2), [_t(rng, 2, 3, 4)])

    def test_getitem_slice(self, rng):
        check_gradients(lambda a: a[1:, :2], [_t(rng, 3, 4)])

    def test_getitem_fancy(self, rng):
        idx = np.array([0, 2, 2])
        check_gradients(lambda a: a[idx], [_t(rng, 3, 4)])

    def test_getitem_fancy_accumulates_duplicates(self):
        a = Tensor(np.zeros(3), requires_grad=True)
        idx = np.array([1, 1, 2])
        a[idx].sum().backward()
        assert np.allclose(a.grad, [0.0, 2.0, 1.0])

    def test_squeeze(self, rng):
        check_gradients(lambda a: a.reshape((3, 1, 4)).squeeze(1), [_t(rng, 3, 4)])


class TestBackwardMechanics:
    def test_backward_requires_scalar_or_grad(self, rng):
        t = _t(rng, 3)
        with pytest.raises(RuntimeError):
            t.backward()

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_gradient_accumulates_across_uses(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        (a * a + a).sum().backward()  # d/da (a^2 + a) = 2a + 1 = 5
        assert np.allclose(a.grad, [5.0])

    def test_diamond_graph(self):
        a = Tensor(np.array([3.0]), requires_grad=True)
        b = a * 2.0
        c = a + 1.0
        (b * c).sum().backward()  # d/da (2a * (a+1)) = 4a + 2 = 14
        assert np.allclose(a.grad, [14.0])

    def test_no_grad_suppresses_taping(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = a * 2.0
        assert not out.requires_grad

    def test_no_grad_is_thread_local(self):
        """A serving thread inside ``no_grad()`` must not stop another
        thread from taping — the streaming subsystem trains a refit
        while the previous model serves in the same process."""
        entered = threading.Event()
        release = threading.Event()

        def serve() -> None:
            with no_grad():
                entered.set()
                release.wait(timeout=10.0)

        thread = threading.Thread(target=serve)
        thread.start()
        try:
            assert entered.wait(timeout=10.0)
            a = Tensor(np.ones(3), requires_grad=True)
            (a * 2.0).sum().backward()
            assert np.allclose(a.grad, [2.0, 2.0, 2.0])
        finally:
            release.set()
            thread.join(timeout=10.0)

    def test_detach_cuts_graph(self):
        a = Tensor(np.ones(3), requires_grad=True)
        out = (a.detach() * 2.0).sum()
        assert not out.requires_grad

    def test_zero_grad(self):
        a = Tensor(np.ones(3), requires_grad=True)
        (a * 3.0).sum().backward()
        assert a.grad is not None
        a.zero_grad()
        assert a.grad is None

    def test_int_input_promoted_to_float(self):
        t = Tensor([1, 2, 3])
        assert t.dtype == np.float64

    def test_item_and_len(self):
        assert Tensor([2.5]).item() == 2.5
        assert len(Tensor(np.zeros((4, 2)))) == 4
