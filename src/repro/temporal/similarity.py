"""Temporal-similarity adjacency construction (paper §3.4.1).

STSM builds ``A_dtw`` from DTW distances with two top-pair budgets:

* ``q_kk`` — for every observed location, keep edges to its ``q_kk`` most
  temporally similar *observed* locations (bidirectional);
* ``q_ku`` — for every unobserved/masked location, keep edges *from* its
  ``q_ku`` most similar observed locations (one-way: observed → unobserved,
  so pseudo-observation noise cannot pollute observed embeddings).

During training the masked locations play the unobserved role and the
matrix is recomputed every epoch because the mask changes (``A_dtw^train``);
at test time the true unobserved locations are used (``A_dtw``).
"""

from __future__ import annotations

import numpy as np

from .dtw import daily_profile, downsample_profile, dtw_distance_matrix

__all__ = ["temporal_adjacency", "build_dtw_adjacency"]


def temporal_adjacency(
    observed_distances: np.ndarray,
    cross_distances: np.ndarray | None,
    observed_index: np.ndarray,
    target_index: np.ndarray | None,
    num_nodes: int,
    q_kk: int = 1,
    q_ku: int = 1,
) -> np.ndarray:
    """Assemble the (num_nodes, num_nodes) DTW adjacency from distances.

    Parameters
    ----------
    observed_distances:
        ``(N_o, N_o)`` DTW distances among observed locations.
    cross_distances:
        ``(N_o, N_t)`` DTW distances from observed to target (masked or
        unobserved) locations, or ``None`` when there are no targets.
    observed_index / target_index:
        Global node ids of the observed and target locations.
    num_nodes:
        Total graph size N.
    q_kk / q_ku:
        Top-pair budgets (paper default 1 and 1).

    Returns
    -------
    Binary ``(num_nodes, num_nodes)`` adjacency under the ``A @ H`` GCN
    convention of :mod:`repro.core.gcn`: row ``i`` aggregates from the
    columns ``j`` with ``A[i, j] = 1``.  Observed pairs are symmetric;
    cross pairs are one-way (``A[target, observed] = 1`` only), so masked /
    unobserved locations receive messages from observed locations but never
    send their pseudo-observation noise back (paper §3.4.1).
    """
    observed_index = np.asarray(observed_index, dtype=int)
    n_obs = len(observed_index)
    if observed_distances.shape != (n_obs, n_obs):
        raise ValueError(
            f"observed_distances shape {observed_distances.shape} does not match "
            f"{n_obs} observed locations"
        )
    adjacency = np.zeros((num_nodes, num_nodes))
    if n_obs > 1 and q_kk > 0:
        budget = min(q_kk, n_obs - 1)
        masked = observed_distances + np.diag(np.full(n_obs, np.inf))
        nearest = np.argsort(masked, axis=1)[:, :budget]  # (n_obs, budget)
        rows = np.repeat(observed_index, budget)
        cols = observed_index[nearest.ravel()]
        adjacency[rows, cols] = 1.0
        adjacency[cols, rows] = 1.0
    if cross_distances is not None and target_index is not None and len(target_index) and q_ku > 0:
        target_index = np.asarray(target_index, dtype=int)
        if cross_distances.shape != (n_obs, len(target_index)):
            raise ValueError(
                f"cross_distances shape {cross_distances.shape} does not match "
                f"({n_obs}, {len(target_index)})"
            )
        budget = min(q_ku, n_obs)
        nearest = np.argsort(cross_distances, axis=0)[:budget, :]  # (budget, n_t)
        # One-way edges: target rows aggregate from their top observed
        # columns; the reverse entries stay 0 so observed embeddings are
        # never polluted by pseudo-observations.
        rows = np.broadcast_to(target_index, nearest.shape).ravel()
        cols = observed_index[nearest.ravel()]
        adjacency[rows, cols] = 1.0
    return adjacency


def build_dtw_adjacency(
    values: np.ndarray,
    observed_index: np.ndarray,
    target_index: np.ndarray | None,
    steps_per_day: int,
    num_nodes: int,
    q_kk: int = 1,
    q_ku: int = 1,
    resolution: int | None = 24,
    distance_fn=None,
) -> np.ndarray:
    """End-to-end DTW adjacency from an observation matrix.

    ``values`` is ``(T, num_nodes)`` where target columns hold
    pseudo-observations (paper: "pseudo-observations can be regarded as real
    observations with noises").  Series are reduced to mean daily profiles
    before the quadratic DTW step, and optionally downsampled to
    ``resolution`` points to bound the pairwise cost on 5-minute datasets.

    ``distance_fn`` swaps the pairwise DTW implementation; it must accept
    ``(series, others=None)`` like :func:`dtw_distance_matrix`.
    The training engine passes a
    :meth:`repro.engine.PairwiseDTWCache.distance_matrix` bound method here
    so per-epoch adjacency rebuilds skip the pairs whose profiles did not
    change under the fresh mask.
    """
    if distance_fn is None:
        distance_fn = dtw_distance_matrix
    observed_index = np.asarray(observed_index, dtype=int)
    profiles = daily_profile(values, steps_per_day)  # (num_nodes, T_d)
    if resolution is not None:
        profiles = downsample_profile(profiles, resolution)
    obs_profiles = profiles[observed_index]
    observed_distances = distance_fn(obs_profiles)
    cross = None
    if target_index is not None and len(target_index):
        target_profiles = profiles[np.asarray(target_index, dtype=int)]
        cross = distance_fn(obs_profiles, target_profiles)
    return temporal_adjacency(
        observed_distances,
        cross,
        observed_index,
        target_index,
        num_nodes,
        q_kk=q_kk,
        q_ku=q_ku,
    )
