"""Pairwise spatial distance computations.

The paper uses Euclidean distance between sensor geo-coordinates "for
efficiency considerations" (§3.3) and evaluates road-network distance as an
alternative (§5.2.6, Table 11).  Haversine is provided for presets whose
coordinates are latitude/longitude degrees.
"""

from __future__ import annotations

import numpy as np

__all__ = ["euclidean_distance_matrix", "haversine_distance_matrix"]

EARTH_RADIUS_M = 6_371_000.0


def euclidean_distance_matrix(coords: np.ndarray) -> np.ndarray:
    """All-pairs Euclidean distances for ``(N, 2)`` planar coordinates."""
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2:
        raise ValueError(f"coords must be (N, d), got shape {coords.shape}")
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=-1))


def haversine_distance_matrix(latlon: np.ndarray) -> np.ndarray:
    """All-pairs great-circle distances in metres for ``(N, 2)`` (lat, lon) degrees."""
    latlon = np.radians(np.asarray(latlon, dtype=float))
    lat = latlon[:, 0][:, None]
    lon = latlon[:, 1][:, None]
    dlat = lat - lat.T
    dlon = lon - lon.T
    a = np.sin(dlat / 2) ** 2 + np.cos(lat) * np.cos(lat.T) * np.sin(dlon / 2) ** 2
    return 2 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))

