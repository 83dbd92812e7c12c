"""Temporal correlation modules.

* :class:`DilatedTCN` — the paper's default (Eq. 5): ``n`` stacked 1-D
  dilated convolutions with exponentially growing dilation ``2^j``, each
  followed by ReLU and dropout, with zero-padding preserving the sequence
  length.
* :class:`TransformerTemporal` — the STSM-trans replacement (§5.2.5): a
  transformer encoder over the time axis with sinusoidal positions.
* :class:`RecurrentTemporal` — a GRU over the time axis (extension beyond
  the paper: the DCRNN-style recurrent choice its related work discusses).

All consume/produce ``(batch, time, nodes, channels)`` tensors so the ST
block can treat them interchangeably.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor
from ..nn import GRU, Conv1d, Dropout, Module, ModuleList, TransformerEncoderLayer, positional_encoding

__all__ = ["DilatedTCN", "TransformerTemporal", "RecurrentTemporal"]


class DilatedTCN(Module):
    """Stacked dilated 1-D convolutions over the time axis (Eq. 5)."""

    def __init__(
        self,
        channels: int,
        levels: int,
        kernel_size: int = 3,
        dropout: float = 0.1,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if levels <= 0:
            raise ValueError("TCN needs at least one level")
        self.channels = channels
        self.convs = ModuleList(
            [
                Conv1d(
                    channels,
                    channels,
                    kernel_size,
                    dilation=2 ** level,
                    padding="same",
                    rng=rng,
                )
                for level in range(levels)
            ]
        )
        self.dropout = Dropout(dropout, rng=rng)

    def forward(self, features: Tensor) -> Tensor:
        batch, time, nodes, channels = features.shape
        # (B, T, N, C) -> (B*N, C, T) for convolution over time.
        seq = features.transpose(0, 2, 3, 1).reshape(batch * nodes, channels, time)
        for conv in self.convs:
            seq = self.dropout(conv(seq).relu())
        return seq.reshape(batch, nodes, channels, time).transpose(0, 3, 1, 2)


class TransformerTemporal(Module):
    """Transformer-encoder temporal module (STSM-trans, §5.2.5)."""

    def __init__(
        self,
        channels: int,
        num_heads: int = 4,
        dropout: float = 0.1,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.channels = channels
        # One encoder layer, kept in a list for its ``layers.0.*`` state keys.
        self.layers = ModuleList(
            [TransformerEncoderLayer(channels, num_heads, dropout=dropout, rng=rng)]
        )

    def forward(self, features: Tensor) -> Tensor:
        batch, time, nodes, channels = features.shape
        positions = Tensor(positional_encoding(time, channels))
        seq = features.transpose(0, 2, 1, 3).reshape(batch * nodes, time, channels)
        seq = seq + positions
        for layer in self.layers:
            seq = layer(seq)
        return seq.reshape(batch, nodes, time, channels).transpose(0, 2, 1, 3)


class RecurrentTemporal(Module):
    """GRU temporal module (extension; the RNN choice of DCRNN-style models).

    The paper notes RNNs "suffer in model running time and in the
    effectiveness of modelling longer sequences" compared to TCNs —
    this module lets the ablation suite measure that trade-off inside
    STSM's architecture.
    """

    def __init__(self, channels: int, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        self.channels = channels
        self.gru = GRU(channels, channels, rng=rng)

    def forward(self, features):
        batch, time, nodes, channels = features.shape
        seq = features.transpose(0, 2, 1, 3).reshape(batch * nodes, time, channels)
        hidden, _final = self.gru(seq)
        return hidden.reshape(batch, nodes, time, channels).transpose(0, 2, 1, 3)
