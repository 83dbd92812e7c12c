"""Pairwise spatial distance computations.

The paper uses Euclidean distance between sensor geo-coordinates "for
efficiency considerations" (§3.3) and evaluates road-network distance as an
alternative (§5.2.6, Table 11).
"""

from __future__ import annotations

import numpy as np

__all__ = ["euclidean_distance_matrix"]


def euclidean_distance_matrix(coords: np.ndarray) -> np.ndarray:
    """All-pairs Euclidean distances for ``(N, 2)`` planar coordinates."""
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2:
        raise ValueError(f"coords must be (N, d), got shape {coords.shape}")
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=-1))

