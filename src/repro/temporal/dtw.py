"""Dynamic time warping (Berndt & Clifford 1994).

STSM follows STFGNN (Li & Zhu, AAAI 2021) in using DTW distances between
sensor time series to build a temporal-similarity adjacency matrix.  We
implement the exact O(T^2) dynamic program, plus the daily-profile
downsampling used in practice to keep the pairwise computation tractable.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DEFAULT_CHUNK_PAIRS",
    "dtw_distance",
    "dtw_distance_matrix",
    "daily_profile",
    "downsample_profile",
]

#: Pair-chunk size of :func:`dtw_distance_matrix` and the pair cache.
#: The batched dynamic program keeps two ``(P, m + 1)`` float rows plus
#: the gathered ``(P, n)`` / ``(P, m)`` series copies alive at once, so
#: bounding P bounds peak memory: at 4096 pairs and 96-point daily
#: profiles that is a few MB, regardless of how large N(N-1)/2 grows.
DEFAULT_CHUNK_PAIRS = 4096


def dtw_distance(a: np.ndarray, b: np.ndarray) -> float:
    """DTW distance between two 1-D series (lengths may differ) under
    absolute-difference cost."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        raise ValueError("dtw_distance requires non-empty series")
    cost = np.full((n + 1, m + 1), np.inf)
    cost[0, 0] = 0.0
    for i in range(1, n + 1):
        ai = a[i - 1]
        row = cost[i]
        prev = cost[i - 1]
        for j in range(1, m + 1):
            step = abs(ai - b[j - 1])
            row[j] = step + min(prev[j], row[j - 1], prev[j - 1])
    return float(cost[n, m])


def _dtw_batch(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """DTW distances for P aligned series pairs, vectorised across pairs.

    ``left`` is ``(P, n)`` and ``right`` is ``(P, m)``; returns ``(P,)``.
    The dynamic program iterates the n*m cell grid in Python but evaluates
    every cell for all P pairs at once, which keeps the per-pair cost
    negligible for the daily-profile lengths used here.
    """
    pairs, n = left.shape
    m = right.shape[1]
    prev = np.full((pairs, m + 1), np.inf)
    prev[:, 0] = 0.0
    for i in range(1, n + 1):
        row = np.full((pairs, m + 1), np.inf)
        cost_row = np.abs(left[:, i - 1 : i] - right)  # (P, m)
        for j in range(1, m + 1):
            best = np.minimum(np.minimum(prev[:, j], row[:, j - 1]), prev[:, j - 1])
            row[:, j] = cost_row[:, j - 1] + best
        prev = row
    return prev[:, m]


def _dtw_batch_chunked(
    left: np.ndarray,
    right: np.ndarray,
    pair_i: np.ndarray,
    pair_j: np.ndarray,
    chunk_pairs: int,
) -> np.ndarray:
    """Gather-and-batch DTW over index pairs, ``chunk_pairs`` at a time.

    Chunking only partitions the pair axis — each pair's dynamic program
    is independent (every vectorised op in :func:`_dtw_batch` is
    element-wise per pair), so the outputs are bit-identical to one
    monolithic batch while peak memory stays bounded by the chunk size
    instead of the full pair count.
    """
    total = len(pair_i)
    if chunk_pairs >= total:
        return _dtw_batch(left[pair_i], right[pair_j])
    flat = np.empty(total)
    for low in range(0, total, chunk_pairs):
        high = min(low + chunk_pairs, total)
        flat[low:high] = _dtw_batch(left[pair_i[low:high]], right[pair_j[low:high]])
    return flat


def dtw_distance_matrix(series: np.ndarray, others: np.ndarray | None = None) -> np.ndarray:
    """Pairwise DTW distances.

    Parameters
    ----------
    series:
        ``(N, T)`` array, one series per row.
    others:
        Optional ``(M, T')`` second set; when given, returns the ``(N, M)``
        cross matrix, otherwise the symmetric ``(N, N)`` self matrix.

    At most :data:`DEFAULT_CHUNK_PAIRS` pairs go through each batched
    dynamic program, so the N(N-1)/2 self-pair (or N*M cross) grid never
    materialises at once: bit-identical outputs, bounded peak RSS.
    """
    series = np.atleast_2d(np.asarray(series, dtype=float))
    if others is None:
        n = len(series)
        if n < 2:
            return np.zeros((n, n))
        upper_i, upper_j = np.triu_indices(n, k=1)
        flat = _dtw_batch_chunked(series, series, upper_i, upper_j, DEFAULT_CHUNK_PAIRS)
        out = np.zeros((n, n))
        out[upper_i, upper_j] = flat
        out[upper_j, upper_i] = flat
        return out
    others = np.atleast_2d(np.asarray(others, dtype=float))
    n, m = len(series), len(others)
    grid_i, grid_j = np.meshgrid(np.arange(n), np.arange(m), indexing="ij")
    flat = _dtw_batch_chunked(
        series, others, grid_i.ravel(), grid_j.ravel(), DEFAULT_CHUNK_PAIRS
    )
    return flat.reshape(n, m)


def downsample_profile(profiles: np.ndarray, resolution: int) -> np.ndarray:
    """Average ``(N, T_d)`` profiles down to ``resolution`` points.

    Used to bound the quadratic DTW cost on high-frequency datasets
    (e.g. 288 five-minute intervals -> 24 hourly points).  Trailing points
    that do not fill a full bucket are averaged into the last bucket.
    """
    profiles = np.atleast_2d(np.asarray(profiles, dtype=float))
    n, length = profiles.shape
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    if resolution >= length:
        return profiles
    bucket = length // resolution
    trimmed = profiles[:, : bucket * resolution].reshape(n, resolution, bucket).mean(axis=2)
    remainder = profiles[:, bucket * resolution :]
    if remainder.size:
        trimmed[:, -1] = (trimmed[:, -1] * bucket + remainder.sum(axis=1)) / (
            bucket + remainder.shape[1]
        )
    return trimmed


def daily_profile(values: np.ndarray, steps_per_day: int) -> np.ndarray:
    """Average each location's series into one mean daily profile.

    Parameters
    ----------
    values:
        ``(T, N)`` observation matrix.
    steps_per_day:
        ``T_d`` — number of observation intervals per day.

    Returns
    -------
    ``(N, steps_per_day)`` matrix of mean daily curves.  Computing DTW on
    these profiles instead of full histories is the standard STFGNN recipe
    the paper follows; it preserves the periodic structure DTW is meant to
    compare while keeping cost O(T_d^2).
    """
    values = np.asarray(values, dtype=float)
    steps, n = values.shape
    if steps_per_day <= 0:
        raise ValueError("steps_per_day must be positive")
    full_days = steps // steps_per_day
    if full_days == 0:
        # Shorter than one day: pad by repeating the partial day.
        padded = np.zeros((steps_per_day, n))
        padded[:steps] = values
        padded[steps:] = values.mean(axis=0, keepdims=True)
        return padded.T
    trimmed = values[: full_days * steps_per_day]
    return trimmed.reshape(full_days, steps_per_day, n).mean(axis=0).T
