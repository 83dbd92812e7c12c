"""Attention layers: scaled dot-product, multi-head, transformer encoder.

Used by the STSM-trans variant (paper §5.2.5): the 1-D TCN temporal module
is replaced by a transformer encoder, with a gated fusion of spatial and
temporal embeddings per block (following GMAN, Zheng et al. AAAI 2020).
"""

from __future__ import annotations

import math

import numpy as np

from ..autograd import Tensor, softmax
from ..backend import get_backend
from . import init
from .layers import Dropout, Linear
from .layers import LayerNorm
from .module import Module

__all__ = ["MultiHeadAttention", "TransformerEncoderLayer", "positional_encoding"]


def positional_encoding(length: int, dim: int) -> np.ndarray:
    """Sinusoidal positional encoding table of shape ``(length, dim)``.

    Built by interleaving stacked sin/cos columns (reshape of a
    ``(length, dim/2, 2)`` stack) rather than strided assignment, so the
    construction uses only backend ops.
    """
    b = get_backend()
    half = (dim + 1) // 2
    # Float the int64 aranges explicitly rather than rely on the
    # multiply's type promotion.
    position = b.expand_dims(b.to_float_array(b.arange(length)), 1)
    term = b.exp(
        b.multiply(b.to_float_array(b.arange(0, dim, 2)), -math.log(10000.0) / dim)
    )
    angles = b.multiply(position, term)  # (length, ceil(dim/2))
    paired = b.stack([b.sin(angles), b.cos(angles)], axis=2)
    return b.getitem(b.reshape(paired, (length, 2 * half)), (slice(None), slice(0, dim)))


class MultiHeadAttention(Module):
    """Multi-head scaled dot-product self/cross attention.

    Operates on ``(batch, time, dim)``; heads split the feature axis.
    """

    def __init__(
        self,
        dim: int,
        num_heads: int,
        dropout: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} must be divisible by num_heads {num_heads}")
        rng = rng if rng is not None else init.default_rng()
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.query_proj = Linear(dim, dim, rng=rng)
        self.key_proj = Linear(dim, dim, rng=rng)
        self.value_proj = Linear(dim, dim, rng=rng)
        self.out_proj = Linear(dim, dim, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)

    def _split_heads(self, x: Tensor) -> Tensor:
        batch, time, _ = x.shape
        return x.reshape(batch, time, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(self, query: Tensor, key: Tensor | None = None, value: Tensor | None = None) -> Tensor:
        key = key if key is not None else query
        value = value if value is not None else key
        batch, time_q, _ = query.shape
        q = self._split_heads(self.query_proj(query))
        k = self._split_heads(self.key_proj(key))
        v = self._split_heads(self.value_proj(value))
        scale = 1.0 / math.sqrt(self.head_dim)
        scores = (q @ k.transpose(0, 1, 3, 2)) * scale
        weights = self.dropout(softmax(scores, axis=-1))
        attended = weights @ v  # (batch, heads, time_q, head_dim)
        merged = attended.transpose(0, 2, 1, 3).reshape(batch, time_q, self.dim)
        return self.out_proj(merged)


class TransformerEncoderLayer(Module):
    """Pre-norm transformer encoder block: MHA + a position-wise FFN of
    width ``2 * dim``."""

    def __init__(
        self,
        dim: int,
        num_heads: int,
        dropout: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else init.default_rng()
        self.attention = MultiHeadAttention(dim, num_heads, dropout=dropout, rng=rng)
        self.norm1 = LayerNorm(dim)
        self.norm2 = LayerNorm(dim)
        self.ffn_in = Linear(dim, 2 * dim, rng=rng)
        self.ffn_out = Linear(2 * dim, dim, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        attended = self.attention(self.norm1(x))
        x = x + self.dropout(attended)
        hidden = self.ffn_out(self.ffn_in(self.norm2(x)).relu())
        return x + self.dropout(hidden)
