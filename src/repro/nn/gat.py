"""Graph attention layer (Veličković et al., ICLR 2018) — dense-mask form.

An alternative *spatial* module for STSM: where the paper's GCN (Eq. 6)
aggregates neighbours with fixed normalised weights, graph attention
learns per-edge weights from the node features themselves.  The paper
demonstrates STSM's extensibility by swapping the temporal module
(§5.2.5, STSM-trans); :class:`GraphAttention` provides the matching swap
on the spatial side (the ``STSM-gat`` variant).

The implementation is dense: the adjacency pattern arrives as an ``(N, N)``
mask and attention logits on non-edges are pushed to ``-1e9`` before the
softmax.  Dense masking is exact and fast at the paper's graph sizes
(63–964 sensors); a sparse gather/scatter version would only pay off far
beyond that.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, concatenate, leaky_relu, softmax
from ..backend import get_backend
from .module import Module, Parameter
from . import init

__all__ = ["GraphAttention"]

#: Logit offset that zeroes non-edge attention after the softmax.
_MASK_OFFSET = -1e9
#: LeakyReLU slope on the attention logits (0.2 in the GAT paper).
_NEGATIVE_SLOPE = 0.2


class GraphAttention(Module):
    """Multi-head graph attention over a fixed adjacency pattern.

    Parameters
    ----------
    in_dim:
        Input feature width per node.
    out_dim:
        Output width (total across heads; must divide by ``num_heads``).
    num_heads:
        Independent attention heads, concatenated.

    The mask always carries self-loops, so every node can attend to
    itself even when the adjacency has an empty row (an isolated sensor);
    without them, softmax over an all-masked row returns uniform weights
    over *all* nodes — exactly the leak the mask is meant to prevent.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        num_heads: int = 2,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if out_dim % num_heads != 0:
            raise ValueError(
                f"out_dim {out_dim} must be divisible by num_heads {num_heads}"
            )
        rng = rng if rng is not None else init.default_rng()
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.num_heads = num_heads
        self.head_dim = out_dim // num_heads
        self.weight = Parameter(
            init.xavier_uniform((num_heads, in_dim, self.head_dim), rng), name="weight"
        )
        # Split additive attention vector: e_ij = a_src·h_i + a_dst·h_j.
        self.attn_src = Parameter(
            init.xavier_uniform((num_heads, self.head_dim, 1), rng), name="attn_src"
        )
        self.attn_dst = Parameter(
            init.xavier_uniform((num_heads, self.head_dim, 1), rng), name="attn_dst"
        )

    def _mask_offsets(self, adjacency: np.ndarray) -> np.ndarray:
        """``(N, N)`` additive logit offsets: 0 on edges, -1e9 elsewhere."""
        b = get_backend()
        mask = b.greater(b.asarray(adjacency), 0)
        mask = b.logical_or(mask, b.eye(mask.shape[0], dtype=bool))
        return b.where(mask, 0.0, _MASK_OFFSET)

    def forward(self, adjacency: Tensor | np.ndarray, features: Tensor) -> Tensor:
        """Attend over neighbours.

        Parameters
        ----------
        adjacency:
            ``(N, N)``; only its sparsity pattern is used (edge weights are
            learned), so both raw and GCN-normalised matrices work.
        features:
            ``(..., N, in_dim)`` node features with any leading axes.

        Returns
        -------
        ``(..., N, out_dim)`` attended features (heads concatenated).
        """
        adjacency_data = (
            adjacency.numpy() if isinstance(adjacency, Tensor) else get_backend().asarray(adjacency)
        )
        offsets = Tensor(self._mask_offsets(adjacency_data))
        lead = features.ndim - 2
        head_outputs = []
        for head in range(self.num_heads):
            projected = features @ self.weight[head]  # (..., N, head_dim)
            src = projected @ self.attn_src[head]  # (..., N, 1)
            dst = projected @ self.attn_dst[head]  # (..., N, 1)
            # e[..., i, j] = src_i + dst_j  -> transpose dst's last two axes.
            axes = tuple(range(lead)) + (lead + 1, lead)
            logits = leaky_relu(src + dst.transpose(*axes), _NEGATIVE_SLOPE)
            weights = softmax(logits + offsets, axis=-1)  # (..., N, N)
            head_outputs.append(weights @ projected)
        if self.num_heads == 1:
            return head_outputs[0]
        return concatenate(head_outputs, axis=-1)
