"""Weight initialisation schemes (Glorot / uniform).

Draws go through the active backend's explicit-generator RNG surface
(``default_rng(seed)`` yields numpy's draw sequences), so initialisation
is reproducible for a fixed seed.
"""

from __future__ import annotations

import math

from ..backend import get_backend

__all__ = ["xavier_uniform", "uniform", "zeros", "default_rng"]

_DEFAULT_SEED = 0x5757


def default_rng(seed: int | None = None):
    """Return the repository-wide default RNG (deterministic unless seeded)."""
    return get_backend().default_rng(_DEFAULT_SEED if seed is None else seed)


def _fan(shape: tuple[int, ...]) -> tuple[int, int]:
    """Compute (fan_in, fan_out) for dense and convolutional kernels."""
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    # Convolution kernels: (out_channels, in_channels, *spatial)
    receptive = int(math.prod(shape[2:]))
    return shape[1] * receptive, shape[0] * receptive

def xavier_uniform(shape: tuple[int, ...], rng):
    """Glorot uniform: U(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    fan_in, fan_out = _fan(shape)
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return get_backend().uniform(rng, -bound, bound, shape)


def uniform(shape: tuple[int, ...], rng, bound: float):
    """Plain uniform U(-bound, bound)."""
    return get_backend().uniform(rng, -bound, bound, shape)


def zeros(shape: tuple[int, ...]):
    """All-zero array (bias default)."""
    return get_backend().zeros(shape)
