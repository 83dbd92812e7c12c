"""Graph convolution modules (paper Eqs. 6-11).

* :class:`GCN` — one graph convolution ``D^-1/2 Ã D^-1/2 Z W`` (Eq. 6).
* :class:`GCNL` — gated pair ``GCN(A, Z) * sigmoid(GCN(A, Z))`` with two
  independent weight matrices (Eq. 7).
* :class:`GCNBranch` — ``k`` stacked GCNL layers whose outputs are
  max-pooled (Eqs. 8-9); the time axis is carried through every layer, so
  the per-time-step concatenation of Eq. 10 is implicit.
* :class:`DualGraphConv` — two branches (spatial adjacency ``A_s`` and
  temporal-similarity adjacency ``A_dtw``) fused with an elementwise max
  (Eq. 11).

The adjacency matrix is a runtime input (normalised ``(N, N)`` numpy
array), which keeps the module inductive: training runs on the observed
sub-graph, testing on the full graph with more nodes.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, maximum
from ..nn import Module, ModuleList, init
from ..nn.gat import GraphAttention
from ..nn.module import Parameter

__all__ = ["GCN", "GCNL", "GCNBranch", "DualGraphConv", "DualGraphAttention"]


class GCN(Module):
    """Single graph convolution: ``A_hat @ Z @ W`` on (..., N, C) inputs."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng if rng is not None else init.default_rng()
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.weight = Parameter(init.xavier_uniform((in_dim, out_dim), rng), name="weight")

    def forward(self, adjacency: Tensor, features: Tensor) -> Tensor:
        # adjacency: (N, N); features: (..., N, C) — numpy matmul
        # broadcasting applies the same adjacency across leading axes.
        return adjacency @ features @ self.weight


class GCNL(Module):
    """Gated GCN layer: ``GCN_a(A, Z) * sigmoid(GCN_b(A, Z))`` (Eq. 7)."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        self.value_conv = GCN(in_dim, out_dim, rng=rng)
        self.gate_conv = GCN(in_dim, out_dim, rng=rng)

    def forward(self, adjacency: Tensor, features: Tensor) -> Tensor:
        # Both convolutions read one ``A @ Z``; the gate's twin tape node
        # sends its adjoint back to ``Z`` as a separate accumulation.
        mixed = adjacency @ features
        value = mixed @ self.value_conv.weight
        return value * (mixed.twin() @ self.gate_conv.weight).sigmoid()


class GCNBranch(Module):
    """``k`` stacked GCNL layers max-pooled over depth (Eqs. 8-9)."""

    def __init__(self, dim: int, depth: int, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if depth <= 0:
            raise ValueError("GCN depth must be positive")
        self.depth = depth
        self.layers = ModuleList([GCNL(dim, dim, rng=rng) for _ in range(depth)])

    def forward(self, adjacency: Tensor, features: Tensor) -> Tensor:
        outputs = []
        hidden = features
        for layer in self.layers:
            hidden = layer(adjacency, hidden)
            outputs.append(hidden)
        pooled = outputs[0]
        for candidate in outputs[1:]:
            pooled = maximum(pooled, candidate)
        return pooled


class DualGraphConv(Module):
    """Two GCN branches (A_s, A_dtw) fused by elementwise max (Eq. 11)."""

    def __init__(self, dim: int, depth: int, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        self.spatial_branch = GCNBranch(dim, depth, rng=rng)
        self.temporal_branch = GCNBranch(dim, depth, rng=rng)

    def forward(self, a_spatial: Tensor, a_dtw: Tensor, features: Tensor) -> Tensor:
        spatial = self.spatial_branch(a_spatial, features)
        temporal = self.temporal_branch(a_dtw, features)
        return maximum(spatial, temporal)


class DualGraphAttention(Module):
    """GAT drop-in for :class:`DualGraphConv` (the STSM-gat variant).

    Same dual-adjacency structure as Eq. 11 — one branch per adjacency,
    fused with an elementwise max — but each branch learns its edge
    weights by attention instead of using the fixed GCN normalisation.
    The adjacency matrices only contribute their sparsity patterns.
    """

    def __init__(
        self, dim: int, num_heads: int = 2, rng: np.random.Generator | None = None
    ) -> None:
        super().__init__()
        self.spatial_branch = GraphAttention(dim, dim, num_heads=num_heads, rng=rng)
        self.temporal_branch = GraphAttention(dim, dim, num_heads=num_heads, rng=rng)

    def forward(self, a_spatial: Tensor, a_dtw: Tensor, features: Tensor) -> Tensor:
        spatial = self.spatial_branch(a_spatial, features)
        temporal = self.temporal_branch(a_dtw, features)
        return maximum(spatial, temporal)
