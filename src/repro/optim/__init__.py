"""Gradient-based optimisers: Adam, which the paper trains with at a constant
rate, and SGD."""

from .optimizers import SGD, Adam, Optimizer, clip_grad_norm

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "clip_grad_norm",
]
