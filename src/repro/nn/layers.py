"""Basic neural layers: Linear, Conv1d, Dropout, ReLU, LayerNorm."""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, conv1d, dropout
from ..backend import get_backend
from . import init
from .module import Module, Parameter

__all__ = ["Linear", "Conv1d", "Dropout", "ReLU", "LayerNorm"]


class Linear(Module):
    """Affine map ``y = x W + b`` applied to the last axis.

    Parameters
    ----------
    in_features, out_features:
        Input and output dimensionality of the last axis.
    bias:
        Whether to add the learned offset.
    rng:
        Generator for weight initialisation (deterministic default).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else init.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng), name="weight")
        self.bias = Parameter(init.zeros((out_features,)), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return f"Linear(in={self.in_features}, out={self.out_features}, bias={self.bias is not None})"


class Conv1d(Module):
    """Dilated 1-D convolution over ``(batch, channels, length)`` inputs.

    This is the temporal-convolution primitive of the paper's TCN (Eq. 5);
    ``padding='same'`` keeps the sequence length unchanged, which the paper
    relies on ("we use zero-padding").
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        dilation: int = 1,
        padding: int | str = 0,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else init.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.dilation = dilation
        if padding == "same":
            effective = (kernel_size - 1) * dilation + 1
            if effective % 2 == 0:
                raise ValueError("'same' padding requires an odd effective kernel size")
            padding = (effective - 1) // 2
        self.padding = int(padding)
        self.weight = Parameter(
            init.xavier_uniform((out_channels, in_channels, kernel_size), rng), name="weight"
        )
        self.bias = Parameter(init.zeros((out_channels,)), name="bias")

    def forward(self, x: Tensor) -> Tensor:
        return conv1d(x, self.weight, self.bias, dilation=self.dilation, padding=self.padding)

    def __repr__(self) -> str:
        return (
            f"Conv1d(in={self.in_channels}, out={self.out_channels}, "
            f"k={self.kernel_size}, dilation={self.dilation}, padding={self.padding})"
        )


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, rate: float = 0.1, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        self.rate = rate
        self._rng = rng if rng is not None else init.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return dropout(x, self.rate, training=self.training, rng=self._rng)

    def __repr__(self) -> str:
        return f"Dropout(rate={self.rate})"


class ReLU(Module):
    """Rectified linear activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class LayerNorm(Module):
    """Layer normalisation over the last axis with learned scale/offset."""

    def __init__(self, features: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.features = features
        self.eps = eps
        self.gamma = Parameter(get_backend().ones(features), name="gamma")
        self.beta = Parameter(get_backend().zeros(features), name="beta")

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centred = x - mean
        variance = (centred * centred).mean(axis=-1, keepdims=True)
        normalised = centred / (variance + self.eps).sqrt()
        return normalised * self.gamma + self.beta

    def __repr__(self) -> str:
        return f"LayerNorm(features={self.features})"

