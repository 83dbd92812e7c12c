"""Distance matrices, sub-graph extraction, and the road network."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    DEFAULT_MAXSPEED,
    HIGHWAY_LEVELS,
    RoadNetwork,
    RoadSegmentAttributes,
    all_subgraphs,
    euclidean_distance_matrix,
    mean_subgraph_size,
    one_hop_subgraph,
)


class TestEuclidean:
    def test_known_distances(self):
        coords = np.array([[0.0, 0.0], [3.0, 4.0]])
        out = euclidean_distance_matrix(coords)
        assert out[0, 1] == pytest.approx(5.0)
        assert out[1, 0] == pytest.approx(5.0)
        assert np.all(np.diag(out) == 0)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            euclidean_distance_matrix(np.zeros(5))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=12))
    def test_metric_properties(self, n):
        coords = np.random.default_rng(n).uniform(-10, 10, size=(n, 2))
        out = euclidean_distance_matrix(coords)
        assert np.allclose(out, out.T)
        assert np.all(out >= 0)
        # Triangle inequality on a few triples.
        for i in range(min(n, 4)):
            for j in range(min(n, 4)):
                for k in range(min(n, 4)):
                    assert out[i, j] <= out[i, k] + out[k, j] + 1e-9


class TestSubgraphs:
    def _chain_adjacency(self, n=5):
        adj = np.zeros((n, n))
        for i in range(n - 1):
            adj[i, i + 1] = adj[i + 1, i] = 1
        return adj

    def test_one_hop_members(self):
        adj = self._chain_adjacency()
        assert list(one_hop_subgraph(adj, 2)) == [1, 2, 3]
        assert list(one_hop_subgraph(adj, 0)) == [0, 1]

    def test_isolated_node_is_own_subgraph(self):
        adj = np.zeros((3, 3))
        assert list(one_hop_subgraph(adj, 1)) == [1]

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            one_hop_subgraph(self._chain_adjacency(), 9)

    def test_all_subgraphs_count(self):
        adj = self._chain_adjacency(4)
        assert len(all_subgraphs(adj)) == 4

    def test_mean_size_chain(self):
        # Chain of 5: end nodes have 2 members, middle nodes 3.
        assert mean_subgraph_size(self._chain_adjacency()) == pytest.approx((2 + 3 + 3 + 3 + 2) / 5)

    def test_mean_size_empty(self):
        assert mean_subgraph_size(np.zeros((0, 0))) == 0.0


class TestRoadNetwork:
    def _triangle(self):
        net = RoadNetwork()
        attrs = RoadSegmentAttributes(
            highway_level=HIGHWAY_LEVELS.index("primary"),
            maxspeed=DEFAULT_MAXSPEED["primary"],
            is_oneway=False,
            lanes=2,
        )
        net.add_intersection(0, (0.0, 0.0))
        net.add_intersection(1, (100.0, 0.0))
        net.add_intersection(2, (100.0, 100.0))
        net.add_segment(0, 1, attrs)
        net.add_segment(1, 2, attrs)
        return net

    def test_segment_length(self):
        net = self._triangle()
        length, _attrs = net.adjacency[0][1]
        assert length == pytest.approx(100.0)

    def test_nearest_node(self):
        net = self._triangle()
        assert net.nearest_node((95.0, 5.0)) == 1

    def test_nearest_segment_attributes(self):
        net = self._triangle()
        attrs = net.nearest_segment_attributes((0.0, 1.0))
        assert attrs.maxspeed == DEFAULT_MAXSPEED["primary"]
        assert attrs.as_vector().shape == (4,)

    def test_shortest_path_distances(self):
        net = self._triangle()
        points = np.array([[0.0, 0.0], [100.0, 100.0]])
        out = net.shortest_path_distance_matrix(points)
        assert out[0, 1] == pytest.approx(200.0)  # via node 1
        assert out[0, 0] == 0.0

    def test_disconnected_pairs_are_inf(self):
        net = self._triangle()
        net.add_intersection(9, (500.0, 500.0))
        net.add_intersection(10, (501.0, 500.0))
        attrs = RoadSegmentAttributes(0, 110.0, False, 4)
        net.add_segment(9, 10, attrs)
        out = net.shortest_path_distance_matrix(np.array([[0.0, 0.0], [500.0, 500.0]]))
        assert np.isinf(out[0, 1])

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError):
            RoadNetwork().nearest_node((0.0, 0.0))
