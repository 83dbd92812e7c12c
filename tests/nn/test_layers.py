"""Layer behaviour: shapes, modes, parameter registration, gradients."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor, check_gradients


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestLinear:
    def test_shape(self, rng):
        layer = nn.Linear(4, 7)
        out = layer(Tensor(rng.normal(size=(5, 4))))
        assert out.shape == (5, 7)

    def test_leading_axes_preserved(self, rng):
        layer = nn.Linear(4, 2)
        out = layer(Tensor(rng.normal(size=(2, 3, 4))))
        assert out.shape == (2, 3, 2)

    def test_no_bias(self):
        layer = nn.Linear(3, 3, bias=False)
        assert layer.bias is None
        assert len(list(layer.parameters())) == 1

    def test_gradients_flow_to_weights(self, rng):
        layer = nn.Linear(3, 2)
        layer(Tensor(rng.normal(size=(4, 3)))).sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None

    def test_gradcheck(self, rng):
        layer = nn.Linear(3, 2)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        check_gradients(lambda t: layer(t), [x])


class TestConv1dLayer:
    def test_same_padding(self, rng):
        layer = nn.Conv1d(2, 3, kernel_size=3, dilation=2, padding="same")
        out = layer(Tensor(rng.normal(size=(4, 2, 12))))
        assert out.shape == (4, 3, 12)

    def test_same_padding_requires_odd_effective_kernel(self):
        with pytest.raises(ValueError):
            nn.Conv1d(1, 1, kernel_size=2, padding="same")


class TestDropoutLayer:
    def test_train_vs_eval(self, rng):
        layer = nn.Dropout(0.5, rng=np.random.default_rng(0))
        x = Tensor(np.ones((100, 100)))
        train_out = layer(x)
        layer.eval()
        eval_out = layer(x)
        assert (train_out.numpy() == 0).any()
        assert np.allclose(eval_out.numpy(), 1.0)


class TestLayerNorm:
    def test_normalises_last_axis(self, rng):
        layer = nn.LayerNorm(8)
        out = layer(Tensor(rng.normal(2.0, 3.0, size=(5, 8)))).numpy()
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_gradcheck(self, rng):
        layer = nn.LayerNorm(4)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        check_gradients(lambda t: layer(t), [x], atol=1e-4)


class TestModuleMechanics:
    def test_named_parameters_nested(self):
        model = nn.Sequential(nn.Linear(2, 3), nn.ReLU(), nn.Linear(3, 1))
        names = [name for name, _p in model.named_parameters()]
        assert "layers.0.weight" in names
        assert "layers.2.bias" in names

    def test_state_dict_roundtrip(self, rng):
        model = nn.Sequential(nn.Linear(2, 3), nn.ReLU(), nn.Linear(3, 1))
        state = model.state_dict()
        for param in model.parameters():
            param.data += 1.0
        model.load_state_dict(state)
        fresh = model.state_dict()
        for key in state:
            assert np.allclose(state[key], fresh[key])

    def test_load_state_dict_rejects_mismatch(self):
        model = nn.Linear(2, 2)
        with pytest.raises(KeyError):
            model.load_state_dict({"bogus": np.zeros(2)})

    def test_load_state_dict_rejects_bad_shape(self):
        model = nn.Linear(2, 2)
        state = model.state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_train_eval_recursive(self):
        model = nn.Sequential(nn.Linear(2, 2), nn.Dropout(0.5))
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad_clears_all(self, rng):
        model = nn.Linear(3, 1)
        model(Tensor(rng.normal(size=(2, 3)))).sum().backward()
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())

    def test_module_list_indexing(self):
        ml = nn.ModuleList([nn.Linear(1, 1), nn.Linear(1, 1)])
        assert len(ml) == 2
        assert isinstance(ml[1], nn.Linear)


class TestRecurrent:
    def test_gru_shapes(self, rng):
        gru = nn.GRU(3, 5)
        seq, final = gru(Tensor(rng.normal(size=(2, 7, 3))))
        assert seq.shape == (2, 7, 5)
        assert final.shape == (2, 5)

    def test_gru_gradients_flow(self, rng):
        gru = nn.GRU(2, 4)
        _seq, final = gru(Tensor(rng.normal(size=(2, 5, 2))))
        final.sum().backward()
        grads = [p.grad for p in gru.parameters()]
        assert all(g is not None for g in grads)

    def test_gru_initial_state_used(self, rng):
        gru = nn.GRU(2, 3)
        x = Tensor(rng.normal(size=(1, 4, 2)))
        _s1, f1 = gru(x)
        _s2, f2 = gru(x, h0=Tensor(np.ones((1, 3))))
        assert not np.allclose(f1.numpy(), f2.numpy())

    def test_gru_cell_bounded(self, rng):
        cell = nn.GRUCell(2, 3)
        h = cell(Tensor(rng.normal(size=(4, 2)) * 10), Tensor(np.zeros((4, 3))))
        assert np.all(np.abs(h.numpy()) <= 1.0)


class TestAttention:
    def test_mha_shape(self, rng):
        mha = nn.MultiHeadAttention(8, 2)
        out = mha(Tensor(rng.normal(size=(2, 5, 8))))
        assert out.shape == (2, 5, 8)

    def test_mha_dim_divisibility(self):
        with pytest.raises(ValueError):
            nn.MultiHeadAttention(7, 2)

    def test_encoder_layer_residual(self, rng):
        enc = nn.TransformerEncoderLayer(8, 2)
        x = Tensor(rng.normal(size=(2, 5, 8)))
        out = enc(x)
        assert out.shape == x.shape

    def test_positional_encoding_range(self):
        table = nn.positional_encoding(20, 8)
        assert table.shape == (20, 8)
        assert np.all(np.abs(table) <= 1.0)

    def test_cross_attention(self, rng):
        mha = nn.MultiHeadAttention(8, 2)
        q = Tensor(rng.normal(size=(2, 3, 8)))
        kv = Tensor(rng.normal(size=(2, 6, 8)))
        out = mha(q, kv, kv)
        assert out.shape == (2, 3, 8)
