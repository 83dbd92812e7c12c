"""Backend parity: every registered backend must match ``numpy_ref``.

Every nn layer and functional op is run — forward and backward, identical
seeds — under each backend; outputs and gradients must agree to tight
float64 tolerance (backends reorder GEMMs and fuse kernels, so
bit-identity is not required, but anything beyond last-ulps noise is a
backend bug).

The backend list is discovered from the registry, so optional backends
(torch) are covered automatically when their library is installed and
reported as explicit skips when it is not.  Per-backend tolerances:
``torch`` runs a second BLAS/kernel library in float64, which earns a
slightly looser — still float64-noise-level — bound than the strict
default (last-ulps noise only) any other backend is held to.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.autograd import (
    Tensor,
    check_gradients,
    clip_values,
    concatenate,
    conv1d,
    dropout,
    elu,
    gelu,
    leaky_relu,
    log_softmax,
    maximum,
    minimum,
    pad,
    softmax,
    softplus,
    stack,
    where,
)
from repro.backend import KNOWN_OPTIONAL_BACKENDS, available_backends, use_backend

#: (rtol, atol) per non-reference backend; anything discovered but not
#: listed here gets the strict default.
TOLERANCES = {"torch": (1e-7, 1e-9)}
RTOL, ATOL = 1e-9, 1e-11


def _parity_backends():
    """Every registered backend except the reference, plus visible skips
    for known-optional backends whose library is absent."""
    params = [name for name in available_backends() if name != "numpy_ref"]
    for name in sorted(KNOWN_OPTIONAL_BACKENDS):
        if name not in params:
            params.append(
                pytest.param(
                    name,
                    marks=pytest.mark.skip(
                        reason=f"optional backend {name!r} not installed "
                        f"({KNOWN_OPTIONAL_BACKENDS[name]})"
                    ),
                )
            )
    return params


PARITY_BACKENDS = _parity_backends()


def _tolerances(backend: str) -> tuple[float, float]:
    return TOLERANCES.get(backend, (RTOL, ATOL))


def _x(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


# ---------------------------------------------------------------------------
# Case builders: each returns (output Tensor, [watched Tensors]) and must be
# deterministic given the active backend (fresh modules, fixed seeds).
# ---------------------------------------------------------------------------
def case_linear():
    layer = nn.Linear(6, 4, rng=nn.init.default_rng(3))
    x = Tensor(_x((5, 7, 6)), requires_grad=True)
    return layer(x), [x, layer.weight, layer.bias]


def case_conv1d_dilated():
    layer = nn.Conv1d(3, 5, kernel_size=3, dilation=2, padding="same", rng=nn.init.default_rng(4))
    x = Tensor(_x((4, 3, 12)), requires_grad=True)
    return layer(x), [x, layer.weight, layer.bias]


def case_conv1d_raw():
    w = Tensor(_x((4, 2, 3), seed=5), requires_grad=True)
    bias = Tensor(_x((4,), seed=6), requires_grad=True)
    x = Tensor(_x((2, 2, 10), seed=7), requires_grad=True)
    return conv1d(x, w, bias, dilation=1, padding=1), [x, w, bias]


def case_layernorm():
    layer = nn.LayerNorm(8)
    x = Tensor(_x((3, 4, 8)), requires_grad=True)
    return layer(x), [x, layer.gamma, layer.beta]


def case_dropout():
    x = Tensor(_x((32, 16)), requires_grad=True)
    rng = nn.init.default_rng(11)
    return dropout(x, 0.3, training=True, rng=rng), [x]


def case_embedding():
    layer = nn.Embedding(10, 4, rng=nn.init.default_rng(5))
    idx = np.array([[1, 2, 3], [3, 3, 9]])
    return layer(idx), [layer.weight]


def case_gru():
    layer = nn.GRU(3, 5, rng=nn.init.default_rng(6))
    x = Tensor(_x((2, 7, 3)), requires_grad=True)
    out, _h = layer(x)
    return out, [x] + list(layer.parameters())


def case_lstm():
    layer = nn.LSTM(3, 5, rng=nn.init.default_rng(7))
    x = Tensor(_x((2, 6, 3)), requires_grad=True)
    out, _state = layer(x)
    return out, [x] + list(layer.parameters())


def case_gat():
    layer = nn.GraphAttention(4, 6, num_heads=2, rng=nn.init.default_rng(8))
    adjacency = (np.random.default_rng(9).random((7, 7)) > 0.5).astype(float)
    x = Tensor(_x((7, 4)), requires_grad=True)
    return layer(adjacency, x), [x] + list(layer.parameters())


def case_multihead_attention():
    layer = nn.MultiHeadAttention(8, 2, rng=nn.init.default_rng(10))
    x = Tensor(_x((2, 5, 8)), requires_grad=True)
    return layer(x), [x] + list(layer.parameters())


def case_transformer_layer():
    layer = nn.TransformerEncoderLayer(8, 2, rng=nn.init.default_rng(12))
    x = Tensor(_x((2, 5, 8)), requires_grad=True)
    return layer(x), [x] + list(layer.parameters())


def case_mse_masked():
    pred = Tensor(_x((4, 6)), requires_grad=True)
    target = Tensor(_x((4, 6), seed=1))
    mask = np.random.default_rng(2).random((4, 6)) > 0.4
    return nn.mse_loss(pred, target, mask), [pred]


def case_mae():
    pred = Tensor(_x((4, 6)), requires_grad=True)
    return nn.mae_loss(pred, Tensor(_x((4, 6), seed=1))), [pred]


def case_huber():
    pred = Tensor(_x((4, 6)), requires_grad=True)
    return nn.huber_loss(pred, Tensor(_x((4, 6), seed=1)), delta=0.7), [pred]


def case_bce():
    logits = Tensor(_x((5, 3)), requires_grad=True)
    probability = logits.sigmoid()
    target = Tensor((np.random.default_rng(3).random((5, 3)) > 0.5).astype(float))
    return nn.bce_loss(probability, target), [logits]


def case_nt_xent():
    anchor = Tensor(_x((6, 8)), requires_grad=True)
    positive = Tensor(_x((6, 8), seed=1), requires_grad=True)
    return nn.nt_xent_loss(anchor, positive, temperature=0.5), [anchor, positive]


def case_softmax_ops():
    x = Tensor(_x((3, 5, 7)), requires_grad=True)
    return softmax(x, axis=-1) + log_softmax(x, axis=1), [x]


def case_elementwise_zoo():
    x = Tensor(_x((4, 5)), requires_grad=True)
    y = Tensor(_x((4, 5), seed=1), requires_grad=True)
    out = maximum(x, y) + minimum(x, y) * leaky_relu(x) + elu(y) + gelu(x) + softplus(y)
    out = out + clip_values(x, -0.5, 0.5) + where(x.numpy() > 0, x, y)
    return out, [x, y]


def case_shape_zoo():
    x = Tensor(_x((3, 4)), requires_grad=True)
    y = Tensor(_x((3, 4), seed=1), requires_grad=True)
    out = concatenate([x, y], axis=1) @ Tensor(_x((8, 2), seed=2))
    out = out + stack([x[:, :2], y[:, :2]], axis=0).sum(axis=0)
    return pad(out, ((1, 1), (0, 0))), [x, y]


def case_reductions_minmax():
    x = Tensor(_x((4, 5, 6)), requires_grad=True)
    out = x.max(axis=1) + x.min(axis=(0, 2), keepdims=True).sum() + x.mean(axis=1)
    return out, [x]


CASES = {
    "linear": case_linear,
    "conv1d_dilated": case_conv1d_dilated,
    "conv1d_raw": case_conv1d_raw,
    "layernorm": case_layernorm,
    "dropout": case_dropout,
    "embedding": case_embedding,
    "gru": case_gru,
    "lstm": case_lstm,
    "gat": case_gat,
    "multihead_attention": case_multihead_attention,
    "transformer_layer": case_transformer_layer,
    "mse_masked": case_mse_masked,
    "mae": case_mae,
    "huber": case_huber,
    "bce": case_bce,
    "nt_xent": case_nt_xent,
    "softmax_ops": case_softmax_ops,
    "elementwise_zoo": case_elementwise_zoo,
    "shape_zoo": case_shape_zoo,
    "reductions_minmax": case_reductions_minmax,
}


def _run(case, backend: str):
    with use_backend(backend):
        out, watched = CASES[case]()
        out.sum().backward()
        grads = []
        for tensor in watched:
            assert tensor.grad is not None, f"{case}: missing grad under {backend}"
            grads.append(np.asarray(tensor.grad))
        return np.asarray(out.data), grads


@pytest.mark.parametrize("backend", PARITY_BACKENDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_backend_matches_ref(case, backend):
    rtol, atol = _tolerances(backend)
    out_ref, grads_ref = _run(case, "numpy_ref")
    out_other, grads_other = _run(case, backend)
    np.testing.assert_allclose(
        out_other, out_ref, rtol=rtol, atol=atol, err_msg=f"{case}: output under {backend}"
    )
    assert len(grads_ref) == len(grads_other)
    for i, (g_ref, g_other) in enumerate(zip(grads_ref, grads_other)):
        np.testing.assert_allclose(
            g_other, g_ref, rtol=rtol, atol=atol,
            err_msg=f"{case}: grad[{i}] under {backend}",
        )


def _fit_and_predict(backend: str) -> np.ndarray:
    from repro.core import STSMConfig, STSMForecaster
    from repro.data import WindowSpec, space_split, temporal_split
    from repro.data.synthetic import make_pems_bay

    dataset = make_pems_bay(num_sensors=16, num_days=2, seed=3)
    split = space_split(dataset.coords, "horizontal")
    spec = WindowSpec(input_length=6, horizon=4)
    train_ix, _ = temporal_split(dataset.num_steps)
    starts = np.arange(dataset.num_steps - spec.total - 4, dataset.num_steps - spec.total)

    config = STSMConfig(
        epochs=2, hidden_dim=8, num_blocks=1, top_k=4, seed=0, backend=backend
    )
    model = STSMForecaster(config=config)
    model.fit(dataset, split, spec, train_ix)
    return model.predict(starts)


@pytest.mark.parametrize("backend", PARITY_BACKENDS)
def test_stsm_fit_tracks_ref_end_to_end(backend):
    """A tiny fixed-seed STSM fit agrees across backends to float noise.

    Training amplifies kernel-level rounding differences over epochs, so
    the tolerance here is looser than the per-op bound — but the fits
    must remain numerically interchangeable.
    """
    reference = _fit_and_predict("numpy_ref")
    other = _fit_and_predict(backend)
    np.testing.assert_allclose(other, reference, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("backend", ["numpy_ref", *PARITY_BACKENDS])
def test_conv1d_gradients_numerically_correct(backend):
    """The conv kernels differ per backend; certify both against FD."""
    with use_backend(backend):
        w = Tensor(_x((3, 2, 3), seed=5), requires_grad=True)
        x = Tensor(_x((2, 2, 9), seed=7), requires_grad=True)
    check_gradients(
        lambda xx, ww: conv1d(xx, ww, dilation=2, padding=2), [x, w], backend=backend
    )
