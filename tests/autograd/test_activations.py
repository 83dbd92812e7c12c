"""The leaky_relu activation (GAT's attention nonlinearity).

The op gets a value check against its definition and a finite-difference
gradient check, plus a hypothesis sweep over seeds and slopes.  Inputs
are nudged away from the kink at 0 so central differences are valid.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor, check_gradients, leaky_relu


def _smooth_input(seed: int, shape=(3, 4)) -> Tensor:
    """Random values kept away from 0 (the ReLU-family kink)."""
    data = np.random.default_rng(seed).normal(size=shape)
    data = np.where(np.abs(data) < 0.05, 0.1, data)
    return Tensor(data, requires_grad=True)


class TestLeakyReLU:
    def test_values(self):
        x = Tensor(np.array([-2.0, 0.0, 3.0]))
        out = leaky_relu(x, negative_slope=0.1).numpy()
        assert np.allclose(out, [-0.2, 0.0, 3.0])

    def test_positive_side_identity(self):
        x = Tensor(np.array([1.5, 7.0]))
        assert np.allclose(leaky_relu(x).numpy(), [1.5, 7.0])

    def test_gradient(self):
        check_gradients(lambda a: leaky_relu(a, 0.2), [_smooth_input(0)])

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), slope=st.floats(0.01, 0.9))
    def test_gradient_property(self, seed, slope):
        check_gradients(lambda a: leaky_relu(a, slope), [_smooth_input(seed)])
