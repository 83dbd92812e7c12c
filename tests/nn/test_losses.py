"""Loss function semantics, including the paper's NT-Xent loss (Eq. 17)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor, check_gradients


@pytest.fixture
def rng():
    return np.random.default_rng(5)


class TestMSE:
    def test_zero_for_perfect_prediction(self, rng):
        x = Tensor(rng.normal(size=(3, 4)))
        assert nn.mse_loss(x, Tensor(x.numpy().copy())).item() == 0.0

    def test_known_value(self):
        pred = Tensor(np.array([1.0, 3.0]))
        target = Tensor(np.array([0.0, 0.0]))
        assert nn.mse_loss(pred, target).item() == pytest.approx(5.0)

    def test_mask_restricts(self):
        pred = Tensor(np.array([1.0, 100.0]))
        target = Tensor(np.array([0.0, 0.0]))
        mask = np.array([1.0, 0.0])
        assert nn.mse_loss(pred, target, mask).item() == pytest.approx(1.0)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            nn.mse_loss(Tensor([1.0]), Tensor([0.0]), np.array([0.0]))

    def test_gradcheck(self, rng):
        pred = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        target = Tensor(rng.normal(size=(3, 4)))
        check_gradients(lambda p: nn.mse_loss(p, target), [pred])


class TestBCE:
    def test_confident_correct_is_small(self):
        prob = Tensor(np.array([[0.999], [0.001]]))
        target = Tensor(np.array([[1.0], [0.0]]))
        assert nn.bce_loss(prob, target).item() < 0.01

    def test_confident_wrong_is_large(self):
        prob = Tensor(np.array([[0.001]]))
        target = Tensor(np.array([[1.0]]))
        assert nn.bce_loss(prob, target).item() > 4.0

    def test_extreme_probabilities_are_clipped(self):
        prob = Tensor(np.array([[1.0], [0.0]]))
        target = Tensor(np.array([[0.0], [1.0]]))
        out = nn.bce_loss(prob, target).item()
        assert np.isfinite(out)


class TestNTXent:
    def test_aligned_pairs_give_lower_loss(self, rng):
        anchor = Tensor(rng.normal(size=(6, 8)))
        aligned = Tensor(anchor.numpy() + 0.01 * rng.normal(size=(6, 8)))
        shuffled = Tensor(rng.normal(size=(6, 8)))
        low = nn.nt_xent_loss(anchor, aligned).item()
        high = nn.nt_xent_loss(anchor, shuffled).item()
        assert low < high

    def test_requires_two_samples(self, rng):
        with pytest.raises(ValueError):
            nn.nt_xent_loss(Tensor(rng.normal(size=(1, 4))), Tensor(rng.normal(size=(1, 4))))

    def test_temperature_sharpens(self, rng):
        anchor = Tensor(rng.normal(size=(4, 8)))
        positive = Tensor(anchor.numpy() + 0.1)
        sharp = nn.nt_xent_loss(anchor, positive, temperature=0.1).item()
        soft = nn.nt_xent_loss(anchor, positive, temperature=10.0).item()
        assert sharp < soft

    def test_gradients_flow_to_both_views(self, rng):
        anchor = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        positive = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        nn.nt_xent_loss(anchor, positive).backward()
        assert anchor.grad is not None
        assert positive.grad is not None

    def test_gradcheck(self, rng):
        anchor = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        positive = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        check_gradients(lambda a, p: nn.nt_xent_loss(a, p), [anchor, positive], atol=1e-4)


class TestCosineMatrix:
    def test_self_similarity_is_one(self, rng):
        x = Tensor(rng.normal(size=(4, 6)))
        sims = nn.cosine_similarity_matrix(x, x).numpy()
        assert np.allclose(np.diag(sims), 1.0, atol=1e-6)

    def test_range(self, rng):
        a = Tensor(rng.normal(size=(5, 6)))
        b = Tensor(rng.normal(size=(7, 6)))
        sims = nn.cosine_similarity_matrix(a, b).numpy()
        assert sims.shape == (5, 7)
        assert np.all(sims <= 1.0 + 1e-9) and np.all(sims >= -1.0 - 1e-9)
