"""STSM network modules: GCN stack, TCN, full network forward/backward."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core import (
    GCN,
    GCNL,
    DilatedTCN,
    DualGraphConv,
    GCNBranch,
    STSMConfig,
    STSMNetwork,
    TransformerTemporal,
)
from repro.graph import gcn_normalise


@pytest.fixture
def rng():
    return np.random.default_rng(21)


@pytest.fixture
def adjacency():
    adj = np.zeros((5, 5))
    for i in range(4):
        adj[i, i + 1] = adj[i + 1, i] = 1
    return Tensor(gcn_normalise(adj))


class TestGCNModules:
    def test_gcn_shape(self, rng, adjacency):
        layer = GCN(4, 6)
        out = layer(adjacency, Tensor(rng.normal(size=(2, 3, 5, 4))))
        assert out.shape == (2, 3, 5, 6)

    def test_gcn_propagates_neighbours(self, adjacency):
        layer = GCN(1, 1)
        layer.weight.data[...] = 1.0
        features = np.zeros((1, 5, 1))
        features[0, 0, 0] = 1.0
        out = layer(adjacency, Tensor(features)).numpy()
        assert out[0, 1, 0] > 0  # neighbour received mass
        assert out[0, 4, 0] == 0  # 4 hops away receives nothing in one conv

    def test_gcnl_gating_bounds(self, rng, adjacency):
        layer = GCNL(4, 4)
        value = layer.value_conv(adjacency, Tensor(rng.normal(size=(1, 5, 4)))).numpy()
        gated = layer(adjacency, Tensor(rng.normal(size=(1, 5, 4)))).numpy()
        assert np.all(np.abs(gated) <= np.abs(value).max() * 5)  # sanity scale

    def test_branch_depth_pooling(self, rng, adjacency):
        branch = GCNBranch(4, depth=3)
        out = branch(adjacency, Tensor(rng.normal(size=(2, 5, 4))))
        assert out.shape == (2, 5, 4)

    def test_branch_requires_positive_depth(self):
        with pytest.raises(ValueError):
            GCNBranch(4, depth=0)

    def test_dual_graph_conv_max_fusion(self, rng, adjacency):
        dual = DualGraphConv(4, depth=2)
        x = Tensor(rng.normal(size=(1, 5, 4)))
        fused = dual(adjacency, adjacency, x).numpy()
        spatial = dual.spatial_branch(adjacency, x).numpy()
        temporal = dual.temporal_branch(adjacency, x).numpy()
        assert np.allclose(fused, np.maximum(spatial, temporal))

    def test_gradients_reach_all_weights(self, rng, adjacency):
        dual = DualGraphConv(3, depth=2)
        out = dual(adjacency, adjacency, Tensor(rng.normal(size=(1, 5, 3))))
        out.sum().backward()
        # max-fusion routes gradient to at least one branch everywhere;
        # both branches' first layers must see some gradient.
        grads = [p.grad for p in dual.parameters()]
        assert any(g is not None and np.abs(g).sum() > 0 for g in grads)


class TestTemporalModules:
    def test_tcn_shape_preserved(self, rng):
        tcn = DilatedTCN(channels=6, levels=3)
        out = tcn(Tensor(rng.normal(size=(2, 12, 4, 6))))
        assert out.shape == (2, 12, 4, 6)

    def test_tcn_requires_levels(self):
        with pytest.raises(ValueError):
            DilatedTCN(channels=4, levels=0)

    def test_transformer_shape_preserved(self, rng):
        trans = TransformerTemporal(channels=8, num_heads=2)
        out = trans(Tensor(rng.normal(size=(2, 6, 3, 8))))
        assert out.shape == (2, 6, 3, 8)

    def test_transformer_is_one_encoder_layer(self):
        # Checkpoints name its weights ``layers.0.*``; the FFN is 2x wide.
        trans = TransformerTemporal(channels=8, num_heads=2)
        names = [name for name, _p in trans.named_parameters()]
        assert names and all(name.startswith("layers.0.") for name in names)
        layer = trans.layers[0]
        assert layer.ffn_in.weight.data.shape == (8, 16)
        assert layer.ffn_out.weight.data.shape == (16, 8)

    def test_tcn_is_per_node(self, rng):
        """Temporal module must not mix information across nodes."""
        tcn = DilatedTCN(channels=4, levels=2, dropout=0.0)
        tcn.eval()
        x = rng.normal(size=(1, 8, 3, 4))
        base = tcn(Tensor(x)).numpy()
        perturbed = x.copy()
        perturbed[0, :, 2, :] += 10.0  # change only node 2
        out = tcn(Tensor(perturbed)).numpy()
        assert np.allclose(out[0, :, 0], base[0, :, 0])
        assert np.allclose(out[0, :, 1], base[0, :, 1])
        assert not np.allclose(out[0, :, 2], base[0, :, 2])


class TestSTSMNetwork:
    def _forward(self, config, batch=2, time=8, nodes=5):
        rng = np.random.default_rng(0)
        net = STSMNetwork(config, horizon=time, input_length=time)
        adj = np.zeros((nodes, nodes))
        for i in range(nodes - 1):
            adj[i, i + 1] = adj[i + 1, i] = 1
        a = Tensor(gcn_normalise(adj))
        x = Tensor(rng.normal(size=(batch, time, nodes, 1)))
        te = Tensor(rng.uniform(size=(batch, time, 1)))
        return net, net(x, te, a, a)

    def test_output_shapes(self):
        config = STSMConfig(hidden_dim=8, num_blocks=2, tcn_levels=2, gcn_depth=2)
        _net, (pred, z) = self._forward(config)
        assert pred.shape == (2, 8, 5, 1)
        assert z.shape == (2, config.contrastive_dim)

    def test_transformer_variant_shapes(self):
        config = STSMConfig(
            hidden_dim=8, num_blocks=1, gcn_depth=1,
            temporal_module="transformer", attention_heads=2,
        )
        _net, (pred, z) = self._forward(config)
        assert pred.shape == (2, 8, 5, 1)

    def test_different_horizon(self):
        config = STSMConfig(hidden_dim=8, num_blocks=1, gcn_depth=1)
        rng = np.random.default_rng(0)
        net = STSMNetwork(config, horizon=4, input_length=8)
        adj = Tensor(gcn_normalise(np.eye(3)))
        pred, _z = net(
            Tensor(rng.normal(size=(2, 8, 3, 1))),
            Tensor(rng.uniform(size=(2, 8, 1))),
            adj,
            adj,
        )
        assert pred.shape == (2, 4, 3, 1)

    def test_backward_reaches_every_parameter(self):
        config = STSMConfig(hidden_dim=8, num_blocks=2, tcn_levels=2, gcn_depth=2, dropout=0.0)
        net, (pred, z) = self._forward(config)
        (pred.sum() + z.sum()).backward()
        missing = [name for name, p in net.named_parameters() if p.grad is None]
        assert not missing, f"parameters with no gradient: {missing}"

    def test_inductive_node_count(self):
        """Same weights must run on graphs of different sizes."""
        config = STSMConfig(hidden_dim=8, num_blocks=1, gcn_depth=1)
        rng = np.random.default_rng(0)
        net = STSMNetwork(config, horizon=6, input_length=6)
        for nodes in (4, 9):
            adj = Tensor(gcn_normalise(np.eye(nodes)))
            pred, _ = net(
                Tensor(rng.normal(size=(1, 6, nodes, 1))),
                Tensor(rng.uniform(size=(1, 6, 1))),
                adj,
                adj,
            )
            assert pred.shape == (1, 6, nodes, 1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            STSMConfig(temporal_module="lstm").validate()
        with pytest.raises(ValueError):
            STSMConfig(mask_ratio=0.0).validate()
        with pytest.raises(ValueError):
            STSMConfig(distance_mode="chebyshev").validate()
        with pytest.raises(ValueError):
            STSMConfig(hidden_dim=0).validate()

    def test_config_replace(self):
        config = STSMConfig()
        other = config.replace(hidden_dim=64)
        assert other.hidden_dim == 64
        assert config.hidden_dim == 32
