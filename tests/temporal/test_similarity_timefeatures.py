"""Temporal adjacency (one-way rule) and time-of-day features."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.temporal import (
    build_dtw_adjacency,
    normalised_time_encoding,
    temporal_adjacency,
)


class TestTemporalAdjacency:
    def test_symmetric_among_observed(self):
        distances = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 4.0], [5.0, 4.0, 0.0]])
        adj = temporal_adjacency(
            distances, None, np.array([0, 1, 2]), None, num_nodes=3, q_kk=1
        )
        assert np.allclose(adj, adj.T)
        assert adj[0, 1] == 1.0  # closest pair linked

    def test_one_way_into_targets(self):
        observed = np.array([0, 1])
        targets = np.array([2])
        obs_d = np.array([[0.0, 2.0], [2.0, 0.0]])
        cross = np.array([[1.0], [3.0]])  # node 0 most similar to target
        adj = temporal_adjacency(obs_d, cross, observed, targets, num_nodes=3)
        assert adj[2, 0] == 1.0  # target aggregates from observed 0
        assert adj[0, 2] == 0.0  # never the reverse
        assert adj[2, 1] == 0.0  # only q_ku=1 edge

    def test_q_ku_budget(self):
        observed = np.array([0, 1, 2])
        targets = np.array([3])
        obs_d = np.zeros((3, 3))
        cross = np.array([[1.0], [2.0], [3.0]])
        adj = temporal_adjacency(obs_d, cross, observed, targets, num_nodes=4, q_kk=0, q_ku=2)
        assert adj[3, 0] == 1.0 and adj[3, 1] == 1.0 and adj[3, 2] == 0.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            temporal_adjacency(np.zeros((2, 3)), None, np.array([0, 1]), None, 4)

    def test_cross_shape_validation(self):
        with pytest.raises(ValueError):
            temporal_adjacency(
                np.zeros((2, 2)), np.zeros((3, 1)), np.array([0, 1]), np.array([2]), 3
            )

    def test_build_from_values_connects_similar(self):
        # Two observed sine sensors, one observed cosine sensor, and one
        # unobserved node whose pseudo-obs equal the sine pattern: its
        # q_ku edge should come from a sine sensor.
        steps = 48
        t = np.linspace(0, 4 * np.pi, steps)
        sine, cosine = np.sin(t), np.cos(t)
        values = np.stack([sine, sine * 1.1, cosine, sine * 0.9], axis=1)
        adj = build_dtw_adjacency(
            values,
            observed_index=np.array([0, 1, 2]),
            target_index=np.array([3]),
            steps_per_day=24,
            num_nodes=4,
            resolution=None,
        )
        assert adj[3, 0] == 1.0 or adj[3, 1] == 1.0
        assert adj[3, 2] == 0.0


def _temporal_adjacency_loops(
    observed_distances, cross_distances, observed_index, target_index, num_nodes,
    q_kk=1, q_ku=1,
):
    """The nested-loop edge writes ``temporal_adjacency`` vectorised: the oracle."""
    n_obs = len(observed_index)
    adjacency = np.zeros((num_nodes, num_nodes))
    if n_obs > 1 and q_kk > 0:
        masked = observed_distances + np.diag(np.full(n_obs, np.inf))
        nearest = np.argsort(masked, axis=1)[:, :min(q_kk, n_obs - 1)]
        for local_i, partners in enumerate(nearest):
            for local_j in partners:
                gi, gj = observed_index[local_i], observed_index[int(local_j)]
                adjacency[gi, gj] = adjacency[gj, gi] = 1.0
    if len(target_index) and q_ku > 0:
        nearest = np.argsort(cross_distances, axis=0)[:min(q_ku, n_obs), :]
        for col, tgt in enumerate(target_index):
            for local_i in nearest[:, col]:
                adjacency[tgt, observed_index[int(local_i)]] = 1.0
    return adjacency


class TestTemporalAdjacencyOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        num_nodes=st.integers(2, 24),
        observed_share=st.floats(0.05, 1.0),
        q_kk=st.integers(0, 4),
        q_ku=st.integers(0, 4),
        levels=st.sampled_from([1, 2, 3, 1000]),  # few levels force ties
        seed=st.integers(0, 2**16),
    )
    def test_matches_nested_loop_oracle(
        self, num_nodes, observed_share, q_kk, q_ku, levels, seed
    ):
        rng = np.random.default_rng(seed)
        n_obs = max(1, round(observed_share * num_nodes))
        observed = np.sort(rng.choice(num_nodes, size=n_obs, replace=False))
        targets = np.setdiff1d(np.arange(num_nodes), observed)
        distances = rng.integers(0, levels, (n_obs, n_obs)).astype(float)
        distances = distances + distances.T
        np.fill_diagonal(distances, 0.0)
        cross = rng.integers(0, levels, (n_obs, len(targets))).astype(float)
        args = (distances, cross, observed, targets, num_nodes)
        expected = _temporal_adjacency_loops(*args, q_kk=q_kk, q_ku=q_ku)
        assert np.array_equal(temporal_adjacency(*args, q_kk=q_kk, q_ku=q_ku), expected)


class TestTimeFeatures:
    def test_normalised_encoding_range(self):
        ids = np.arange(24)
        enc = normalised_time_encoding(ids, 24)
        assert enc.min() == 0.0
        assert enc.max() == 1.0

    def test_normalised_encoding_degenerate(self):
        enc = normalised_time_encoding(np.array([0, 0]), steps_per_day=1)
        assert np.allclose(enc, 0.0)
