"""Optimiser and scheduler behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor
from repro.optim import SGD, Adam, clip_grad_norm
from repro.nn.module import Parameter


def _quadratic_param():
    return Parameter(np.array([5.0, -3.0]))


class TestSGD:
    def test_minimises_quadratic(self):
        p = _quadratic_param()
        opt = SGD([p], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            (p * p).sum().backward()
            opt.step()
        assert np.allclose(p.data, 0.0, atol=1e-6)

    def test_momentum_accelerates(self):
        plain, momentum = _quadratic_param(), _quadratic_param()
        opt_plain = SGD([plain], lr=0.01)
        opt_mom = SGD([momentum], lr=0.01, momentum=0.9)
        for _ in range(50):
            for p, opt in ((plain, opt_plain), (momentum, opt_mom)):
                opt.zero_grad()
                (p * p).sum().backward()
                opt.step()
        assert np.abs(momentum.data).sum() < np.abs(plain.data).sum()

    def test_skips_parameters_without_grad(self):
        p = _quadratic_param()
        before = p.data.copy()
        SGD([p], lr=0.1).step()
        assert np.allclose(p.data, before)


class TestAdam:
    def test_minimises_quadratic(self):
        p = _quadratic_param()
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            (p * p).sum().backward()
            opt.step()
        assert np.allclose(p.data, 0.0, atol=1e-3)

    def test_weight_decay_shrinks(self):
        p = Parameter(np.array([10.0]))
        opt = Adam([p], lr=0.01, weight_decay=0.5)
        for _ in range(50):
            opt.zero_grad()
            (p * 0.0).sum().backward()
            opt.step()
        assert abs(p.data[0]) < 10.0

    def test_rejects_empty_params(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_rejects_nonpositive_lr(self):
        with pytest.raises(ValueError):
            Adam([_quadratic_param()], lr=0.0)

    def test_trains_small_network(self):
        rng = np.random.default_rng(0)
        net = nn.Sequential(nn.Linear(2, 8), nn.ReLU(), nn.Linear(8, 1))
        opt = Adam(net.parameters(), lr=0.02)
        x = rng.normal(size=(64, 2))
        y = (x[:, :1] * 2 - x[:, 1:]) * 0.5
        first = None
        for _ in range(200):
            opt.zero_grad()
            loss = nn.mse_loss(net(Tensor(x)), Tensor(y))
            loss.backward()
            opt.step()
            first = first if first is not None else loss.item()
        assert loss.item() < 0.1 * first


class TestClip:
    def test_clips_large_gradients(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 10.0)
        norm = clip_grad_norm([p], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_leaves_small_gradients(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 0.1)
        clip_grad_norm([p], max_norm=5.0)
        assert np.allclose(p.grad, 0.1)

