"""Gradient checks for the GAT attention softmax (broadcast-heavy path).

The attention logits are built by broadcasting a source column ``(N, 1)``
against a transposed destination row ``(1, N)``, masking non-edges with a
large negative offset and softmax-normalising each row — a composition
(broadcast add -> leaky_relu -> masked softmax -> matmul) that no other
gradient test exercised.  The checks run under the active ``numpy_ref``
backend.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor, check_gradients, leaky_relu, softmax
from repro.nn import GraphAttention, init


def _attention_pipeline(offsets):
    """The GAT per-head attention as a function of (projected, a_src, a_dst)."""

    def fn(projected: Tensor, attn_src: Tensor, attn_dst: Tensor) -> Tensor:
        src = projected @ attn_src  # (N, 1)
        dst = projected @ attn_dst  # (N, 1)
        logits = leaky_relu(src + dst.transpose(1, 0), 0.2)  # broadcast (N, N)
        weights = softmax(logits + offsets, axis=-1)
        return weights @ projected

    return fn


def test_gat_attention_softmax_gradients():
    rng = np.random.default_rng(0)
    n, dim = 6, 4
    adjacency = (rng.random((n, n)) > 0.4).astype(float)
    projected = Tensor(rng.normal(size=(n, dim)), requires_grad=True)
    attn_src = Tensor(rng.normal(size=(dim, 1)), requires_grad=True)
    attn_dst = Tensor(rng.normal(size=(dim, 1)), requires_grad=True)
    mask = adjacency > 0
    np.fill_diagonal(mask, True)
    offsets = Tensor(np.where(mask, 0.0, -1e9))
    check_gradients(
        _attention_pipeline(offsets),
        [projected, attn_src, attn_dst],
        atol=1e-4,
        rtol=1e-3,
    )


def test_gat_layer_end_to_end_gradients():
    """Full GraphAttention forward (leading batch axis) against FD."""
    rng = np.random.default_rng(1)
    n, dim = 5, 4
    adjacency = (rng.random((n, n)) > 0.5).astype(float)
    layer = GraphAttention(dim, dim, num_heads=2, rng=init.default_rng(3))
    features = Tensor(rng.normal(size=(2, n, dim)), requires_grad=True)
    check_gradients(
        lambda feats: layer(adjacency, feats),
        [features],
        atol=1e-4,
        rtol=1e-3,
    )
