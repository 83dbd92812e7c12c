"""Loss functions: MSE, BCE, and the NT-Xent contrastive loss.

``nt_xent_loss`` implements the paper's Eq. 17: the positive pair is the
(original view, masked view) representation of the *same* time window; the
negatives are masked-view representations from *other* windows in the batch.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, clip_values, log_softmax
from ..backend import get_backend

__all__ = ["mse_loss", "bce_loss", "cosine_similarity_matrix", "nt_xent_loss"]


def mse_loss(prediction: Tensor, target: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Mean squared error, optionally restricted to ``mask`` entries.

    Matches the paper's prediction loss (Eq. 14): squared error averaged
    over locations and horizon steps.
    """
    diff = prediction - target
    squared = diff * diff
    if mask is None:
        return squared.mean()
    weights = get_backend().asarray(mask, dtype=float)
    total = get_backend().sum(weights)
    if total == 0:
        raise ValueError("mse_loss mask selects no elements")
    return (squared * Tensor(weights)).sum() * (1.0 / total)


def bce_loss(probability: Tensor, target: Tensor) -> Tensor:
    """Binary cross entropy on probabilities (clipped for stability).

    Used by the GE-GAN baseline's discriminator objective.
    """
    p = clip_values(probability, 1e-7, 1.0 - 1e-7)
    one = Tensor(get_backend().ones_like(p.data))
    losses = -(target * p.log() + (one - target) * (one - p).log())
    return losses.mean()


def cosine_similarity_matrix(a: Tensor, b: Tensor, eps: float = 1e-8) -> Tensor:
    """Pairwise cosine similarities between rows of ``a`` and rows of ``b``.

    The epsilon sits *inside* the square root: ``sqrt(x)`` has an infinite
    derivative at 0, so an all-zero representation (possible early in
    training on degenerate data) would otherwise inject NaNs through the
    contrastive loss.
    """
    a_norm = ((a * a).sum(axis=-1, keepdims=True) + eps).sqrt()
    b_norm = ((b * b).sum(axis=-1, keepdims=True) + eps).sqrt()
    return (a / a_norm) @ (b / b_norm).transpose()


def nt_xent_loss(anchor: Tensor, positive: Tensor, temperature: float = 0.5) -> Tensor:
    """Normalised-temperature cross-entropy contrastive loss (paper Eq. 17).

    Parameters
    ----------
    anchor:
        ``(batch, dim)`` representations of the original view ``G_o``.
    positive:
        ``(batch, dim)`` representations of the masked view ``G_mo`` for the
        same time windows (row ``i`` of both corresponds to window ``i``).
    temperature:
        Softmax temperature τ (paper default 0.5).

    The loss for window ``i`` treats ``positive[i]`` as the positive sample
    and ``positive[j], j != i`` as negatives, exactly as described after
    Eq. 16 ("graph G_o and graph G_mo from different time slots in a batch
    form negative pairs").
    """
    batch = anchor.shape[0]
    if batch < 2:
        raise ValueError("nt_xent_loss needs at least 2 windows in a batch for negatives")
    sims = cosine_similarity_matrix(anchor, positive) * (1.0 / temperature)
    log_probs = log_softmax(sims, axis=1)
    eye = get_backend().eye(batch)
    positive_terms = (log_probs * Tensor(eye)).sum() * (1.0 / batch)
    return -positive_terms
