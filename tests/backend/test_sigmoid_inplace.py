"""``NumpyRefBackend.sigmoid`` runs its ufuncs in place: same bits, same types.

The composite reuses ``clip``'s fresh result as the buffer for the four
ufuncs after it.  It must match the chained, allocating expression bit
for bit (NaN included) and keep the input's dtype; a 0-d array or a
scalar clips to a numpy scalar, which has no buffer to write into.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.backend.numpy_ref import NumpyRefBackend

BACKEND = NumpyRefBackend()


def chained_sigmoid(x):
    return np.divide(1.0, np.add(1.0, np.exp(np.negative(np.clip(x, -60.0, 60.0)))))


CASES = {
    "0-d": np.array(0.3),
    "0-d float32": np.array(-1.5, dtype=np.float32),
    "numpy scalar": np.float64(0.7),
    "float32 scalar": np.float32(-2.0),
    "python float": 0.25,
    "float32 array": np.linspace(-80.0, 80.0, 33, dtype=np.float32),
    "float64 array": np.random.default_rng(0).normal(scale=30.0, size=(4, 5, 6)),
    "saturating": np.array([1e3, -1e3, 60.0, -60.0, 0.0, -0.0]),
    "nan": np.array([np.nan, 1.0, -np.nan], dtype=np.float32),
    "strided view": np.arange(24.0).reshape(4, 6)[:, ::2].T,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_sigmoid_matches_chained_expression(name):
    x = CASES[name]
    before = np.array(x, copy=True)
    expected = chained_sigmoid(x)
    got = BACKEND.sigmoid(x)
    assert type(got) is type(expected)
    assert np.asarray(got).dtype == np.asarray(expected).dtype
    assert np.array_equal(got, expected, equal_nan=True)
    # The input is never the buffer.
    assert np.array_equal(np.asarray(x), before, equal_nan=True)


def test_tensor_sigmoid_on_0d_and_read_only_inputs():
    scalar = Tensor(np.array(0.3), requires_grad=True)
    out = scalar.sigmoid()
    assert np.array_equal(out.data, chained_sigmoid(np.array(0.3)))
    out.backward()
    assert np.isfinite(scalar.grad).all()

    frozen = np.linspace(-3.0, 3.0, 7)
    frozen.flags.writeable = False
    assert np.array_equal(Tensor(frozen).sigmoid().data, chained_sigmoid(frozen))
