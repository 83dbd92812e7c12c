"""Graph attention layer: masking, shapes, gradients."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients
from repro.nn import GraphAttention


def _ring_adjacency(n: int) -> np.ndarray:
    adjacency = np.zeros((n, n))
    for i in range(n):
        adjacency[i, (i + 1) % n] = 1.0
        adjacency[i, (i - 1) % n] = 1.0
    return adjacency


class TestShapes:
    def test_two_dimensional_input(self):
        gat = GraphAttention(4, 6, num_heads=2, rng=np.random.default_rng(0))
        out = gat(_ring_adjacency(5), Tensor(np.random.default_rng(1).normal(size=(5, 4))))
        assert out.shape == (5, 6)

    def test_four_dimensional_input(self):
        gat = GraphAttention(4, 4, num_heads=1, rng=np.random.default_rng(0))
        features = Tensor(np.random.default_rng(1).normal(size=(2, 3, 5, 4)))
        assert gat(_ring_adjacency(5), features).shape == (2, 3, 5, 4)

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValueError, match="divisible"):
            GraphAttention(4, 5, num_heads=2)

    def test_accepts_tensor_adjacency(self):
        gat = GraphAttention(3, 3, num_heads=1, rng=np.random.default_rng(0))
        out = gat(
            Tensor(_ring_adjacency(4)),
            Tensor(np.random.default_rng(1).normal(size=(4, 3))),
        )
        assert out.shape == (4, 3)


class TestMasking:
    def test_non_neighbour_features_do_not_leak(self):
        """Perturbing a non-neighbour leaves a node's output unchanged."""
        n = 6
        adjacency = _ring_adjacency(n)  # node 0's neighbours: 1 and 5
        gat = GraphAttention(4, 4, num_heads=2, rng=np.random.default_rng(0))
        base = np.random.default_rng(1).normal(size=(n, 4))
        out_before = gat(adjacency, Tensor(base)).numpy()[0]
        perturbed = base.copy()
        perturbed[3] += 10.0  # node 3 is not adjacent to node 0
        out_after = gat(adjacency, Tensor(perturbed)).numpy()[0]
        assert np.allclose(out_before, out_after)

    def test_neighbour_features_do_leak(self):
        n = 6
        adjacency = _ring_adjacency(n)
        gat = GraphAttention(4, 4, num_heads=2, rng=np.random.default_rng(0))
        base = np.random.default_rng(1).normal(size=(n, 4))
        out_before = gat(adjacency, Tensor(base)).numpy()[0]
        perturbed = base.copy()
        perturbed[1] += 10.0  # node 1 IS adjacent to node 0
        out_after = gat(adjacency, Tensor(perturbed)).numpy()[0]
        assert not np.allclose(out_before, out_after)

    def test_isolated_node_attends_only_itself(self):
        """An isolated node's output is its own projected features, bit for bit."""
        adjacency = np.zeros((3, 3))
        adjacency[1, 2] = adjacency[2, 1] = 1.0  # node 0 isolated
        gat = GraphAttention(4, 4, num_heads=1, rng=np.random.default_rng(0))
        features = np.random.default_rng(1).normal(size=(3, 4))
        out = gat(adjacency, Tensor(features)).numpy()
        projected = (Tensor(features) @ gat.weight[0]).numpy()
        np.testing.assert_array_equal(out[0], projected[0])

    def test_attention_rows_are_distributions(self):
        """Each head's output is a convex combination of neighbour projections."""
        n = 7
        adjacency = _ring_adjacency(n)
        allowed = adjacency.astype(bool) | np.eye(n, dtype=bool)
        gat = GraphAttention(4, 8, num_heads=2, rng=np.random.default_rng(0))
        features = np.random.default_rng(1).normal(size=(n, 4))
        out = gat(adjacency, Tensor(features)).numpy()
        same = np.tile(features[:1], (n, 1))
        out_same = gat(adjacency, Tensor(same)).numpy()
        for head in range(2):
            columns = slice(4 * head, 4 * head + 4)
            projected = (Tensor(features) @ gat.weight[head]).numpy()
            for node in range(n):
                neighbours = projected[allowed[node]]
                assert np.all(out[node, columns] >= neighbours.min(axis=0) - 1e-12)
                assert np.all(out[node, columns] <= neighbours.max(axis=0) + 1e-12)
            # Identical inputs: weights summing to 1 reproduce the projection.
            projected_same = (Tensor(same) @ gat.weight[head]).numpy()
            np.testing.assert_allclose(out_same[:, columns], projected_same, rtol=1e-12, atol=1e-12)

    def test_zero_weight_on_non_edges(self):
        """Perturbing any non-neighbour leaves a node's output bitwise unchanged."""
        n = 6
        adjacency = _ring_adjacency(n)
        allowed = adjacency.astype(bool) | np.eye(n, dtype=bool)
        gat = GraphAttention(3, 3, num_heads=1, rng=np.random.default_rng(0))
        base = np.random.default_rng(1).normal(size=(n, 3))
        out_before = gat(adjacency, Tensor(base)).numpy()
        for other in range(n):
            perturbed = base.copy()
            perturbed[other] += 10.0
            out_after = gat(adjacency, Tensor(perturbed)).numpy()
            for node in np.flatnonzero(~allowed[:, other]):
                np.testing.assert_array_equal(out_after[node], out_before[node])


class TestGradients:
    def test_gradient_through_attention(self):
        adjacency = _ring_adjacency(4)
        gat = GraphAttention(3, 3, num_heads=1, rng=np.random.default_rng(0))
        features = Tensor(np.random.default_rng(1).normal(size=(4, 3)), requires_grad=True)
        check_gradients(lambda f: gat(adjacency, f), [features], atol=1e-4, rtol=1e-3)

    def test_parameters_receive_gradients(self):
        adjacency = _ring_adjacency(5)
        gat = GraphAttention(4, 4, num_heads=2, rng=np.random.default_rng(0))
        features = Tensor(np.random.default_rng(1).normal(size=(5, 4)))
        gat(adjacency, features).sum().backward()
        for parameter in gat.parameters():
            assert parameter.grad is not None
            assert np.any(parameter.grad != 0.0)
