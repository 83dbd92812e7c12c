"""``GCNL`` computes ``A @ Z`` once for its value and gate convolutions.

The gate reads the product through a twin tape node, so ``Z``'s adjoint
still arrives as two accumulations, ``A^T g_value`` then ``A^T g_gate``.
The forward, ``Z``'s gradient and both weights' gradients must keep the
bits of the two-product layer (Eq. 7 written out), kept here as the
oracle.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor, no_grad
from repro.core.gcn import GCNL
from repro.graph.adjacency import gcn_normalise


def two_product_forward(layer: GCNL, adjacency: Tensor, features: Tensor) -> Tensor:
    """``GCNL.forward`` before the product was shared."""
    return layer.value_conv(adjacency, features) * layer.gate_conv(adjacency, features).sigmoid()


def _run(forward, seed, nodes, lead, channels, features_grad, grad_mode):
    rng = np.random.default_rng(seed)
    raw = rng.random((nodes, nodes)) * (rng.random((nodes, nodes)) < 0.4)
    adjacency = Tensor(gcn_normalise(raw + raw.T))
    features = Tensor(rng.normal(size=(*lead, nodes, channels)), requires_grad=features_grad)
    # Two layers, so the second one's twin accumulations land on an
    # interior node, not a leaf.
    layers = [GCNL(channels, channels, rng=np.random.default_rng(seed + 1)) for _ in range(2)]
    upstream = rng.normal(size=(*lead, nodes, channels))
    if not grad_mode:
        with no_grad():
            out = forward(layers[1], adjacency, forward(layers[0], adjacency, features))
        assert not out.requires_grad
        return [out.data]
    out = forward(layers[1], adjacency, forward(layers[0], adjacency, features))
    (out * Tensor(upstream)).sum().backward()
    grads = [features.grad] if features_grad else []
    for layer in layers:
        grads += [layer.value_conv.weight.grad, layer.gate_conv.weight.grad]
    return [out.data, *grads]


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 2),
    nodes=st.integers(1, 40),
    lead=st.lists(st.integers(1, 3), min_size=0, max_size=2).map(tuple),
    channels=st.integers(1, 5),
    features_grad=st.booleans(),
    grad_mode=st.booleans(),
)
def test_shared_product_is_bitwise_the_two_product_layer(
    seed, nodes, lead, channels, features_grad, grad_mode
):
    args = (seed, nodes, lead, channels, features_grad, grad_mode)
    shared = _run(lambda layer, a, z: layer(a, z), *args)
    reference = _run(two_product_forward, *args)
    assert len(shared) == len(reference)
    for got, want in zip(shared, reference):
        assert got is not None and want is not None
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_shared_product_saves_one_matmul_per_layer(monkeypatch):
    rng = np.random.default_rng(0)
    adjacency = Tensor(gcn_normalise(rng.random((6, 6))))
    features = Tensor(rng.normal(size=(2, 6, 3)), requires_grad=True)
    layer = GCNL(3, 3, rng=rng)
    calls = []
    original = Tensor.__matmul__

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(Tensor, "__matmul__", counting)
    layer(adjacency, features)
    shared = len(calls)
    calls.clear()
    two_product_forward(layer, adjacency, features)
    assert (shared, len(calls)) == (3, 4)
