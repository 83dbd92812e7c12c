"""Static graph node embeddings for the GE-GAN baseline.

GE-GAN (Xu et al. 2020) selects the most similar observed roads for a
target road using node embeddings of the road graph.  The original uses
node2vec; we use Laplacian spectral embeddings, which capture the same
neighbourhood structure deterministically (no random walks to tune) and
are the classic choice for this graph scale.
"""

from __future__ import annotations

import numpy as np

__all__ = ["spectral_embedding", "most_similar_nodes"]


def spectral_embedding(adjacency: np.ndarray, dim: int = 16) -> np.ndarray:
    """Normalised-Laplacian eigenvector embedding of a graph.

    Returns ``(N, dim)`` rows (eigenvectors 1..dim, skipping the trivial
    constant eigenvector).  ``dim`` is clipped to N-1.
    """
    from scipy.linalg import eigh

    adjacency = np.asarray(adjacency, dtype=float)
    n = len(adjacency)
    if n < 2:
        raise ValueError("spectral embedding needs at least 2 nodes")
    degrees = adjacency.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(np.maximum(degrees, 1e-12))
    laplacian = np.eye(n) - adjacency * inv_sqrt[:, None] * inv_sqrt[None, :]
    dim = min(dim, n - 1)
    _vals, vecs = eigh(laplacian, subset_by_index=[1, dim])
    return vecs


def most_similar_nodes(
    embeddings: np.ndarray,
    target: int,
    candidates: np.ndarray,
    k: int,
) -> np.ndarray:
    """The ``k`` candidates whose embeddings are closest to the target's."""
    candidates = np.asarray(candidates, dtype=int)
    candidates = candidates[candidates != target]
    if len(candidates) == 0:
        raise ValueError("no candidate nodes to select from")
    deltas = embeddings[candidates] - embeddings[target]
    order = np.argsort((deltas ** 2).sum(axis=1))
    return candidates[order[: min(k, len(candidates))]]
