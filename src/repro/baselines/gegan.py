"""GE-GAN baseline (Xu et al., Transportation Research Part C 2020), adapted.

Graph-Embedding GAN for road traffic state estimation: node embeddings of
the road graph select, for each target location, the most similar observed
locations; a generator MLP maps [noise || similar locations' window] to
the target's values and a discriminator MLP tells real from generated.

Adaptations (documented per DESIGN.md):

* the ground truth is the *future* window (the paper adapts all baselines
  from imputation to forecasting this way, §5.1.3);
* node2vec embeddings are replaced by deterministic Laplacian spectral
  embeddings (:mod:`repro.baselines.graph_embedding`);
* the generator loss adds a *small* L2 term to the adversarial term so
  training does not diverge at this scale; the weight is kept low on
  purpose — the published model is adversarial, and a large L2 would turn
  it into supervised regression and mask its characteristic failure mode
  on large contiguous unobserved regions.

GE-GAN is transductive: embeddings cover the full graph (geometry of the
unobserved region is known, its data is not), so a new region requires
re-embedding — one of the drawbacks the paper highlights.

The paper's finding to reproduce: GE-GAN collapses on large contiguous
unobserved regions ("it is difficult to find similar locations when there
are many unobserved locations in a large area") but is comparatively much
better on the small urban dataset (Melbourne).
"""

from __future__ import annotations

import time

import numpy as np

from ..autograd import Tensor, concatenate, no_grad
from ..data.missing import FiniteInputCheck, check_finite_observations
from ..data.scalers import StandardScaler
from ..engine import Trainer, TrainingProgram
from ..graph.adjacency import gaussian_kernel_adjacency
from ..graph.distances import euclidean_distance_matrix
from ..interfaces import FitReport, Forecaster
from ..nn import Linear, Module, Sequential, ReLU, bce_loss, init, mse_loss
from ..optim import Adam
from .graph_embedding import most_similar_nodes, spectral_embedding

__all__ = ["GEGANForecaster"]


class _Generator(Module):
    """MLP: [noise || condition window] -> target future window."""

    def __init__(self, condition_dim: int, noise_dim: int, horizon: int,
                 hidden: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.body = Sequential(
            Linear(condition_dim + noise_dim, hidden, rng=rng),
            ReLU(),
            Linear(hidden, hidden, rng=rng),
            ReLU(),
            Linear(hidden, horizon, rng=rng),
        )

    def forward(self, noise: Tensor, condition: Tensor) -> Tensor:
        return self.body(concatenate([noise, condition], axis=-1))


class _Discriminator(Module):
    """MLP: [condition || candidate future] -> real probability."""

    def __init__(self, condition_dim: int, horizon: int, hidden: int,
                 rng: np.random.Generator) -> None:
        super().__init__()
        self.body = Sequential(
            Linear(condition_dim + horizon, hidden, rng=rng),
            ReLU(),
            Linear(hidden, hidden, rng=rng),
            ReLU(),
            Linear(hidden, 1, rng=rng),
        )

    def forward(self, condition: Tensor, candidate: Tensor) -> Tensor:
        logits = self.body(concatenate([condition, candidate], axis=-1))
        return logits.sigmoid()


class _GEGANProgram(TrainingProgram):
    """Adversarial two-optimiser step under the shared Trainer.

    The default single-optimiser ``train_batch`` does not fit a GAN, so
    this program overrides it: each epoch draws one conditioned batch,
    steps the discriminator on real-vs-generated futures, then steps the
    generator against the updated discriminator (+ auxiliary L2).  The
    reported epoch loss is the generator's, matching the pre-engine
    history.
    """

    def __init__(self, forecaster: "GEGANForecaster", usable: int,
                 train_steps: np.ndarray) -> None:
        self.forecaster = forecaster
        self.network = forecaster.generator
        self.g_opt = Adam(forecaster.generator.parameters(), lr=forecaster.learning_rate)
        self.d_opt = Adam(forecaster.discriminator.parameters(), lr=forecaster.learning_rate)
        self.usable = usable
        self.train_steps = train_steps
        self.ones = Tensor(np.ones((forecaster.batch_size, 1)))
        self.zeros = Tensor(np.zeros((forecaster.batch_size, 1)))

    def batches(self, epoch: int, rng: np.random.Generator | None):
        forecaster = self.forecaster
        spec = forecaster.spec
        observed = forecaster.split.observed
        targets = rng.choice(observed, size=forecaster.batch_size, replace=True)
        starts = rng.integers(0, self.usable + 1, size=forecaster.batch_size)
        conditions, futures = [], []
        for target, s in zip(targets, starts):
            begin = int(self.train_steps[0]) + int(s)
            sims = forecaster._similar[int(target)]
            window = forecaster._scaled[begin : begin + spec.input_length][:, sims]
            conditions.append(window.T.ravel())
            futures.append(
                forecaster._scaled[begin + spec.input_length : begin + spec.total, int(target)]
            )
        condition = Tensor(np.stack(conditions, axis=0))
        real = Tensor(np.stack(futures, axis=0))
        noise = Tensor(rng.normal(size=(forecaster.batch_size, forecaster.noise_dim)))
        yield condition, real, noise

    def train_batch(self, batch, rng: np.random.Generator | None) -> float:
        forecaster = self.forecaster
        condition, real, noise = batch

        # Discriminator step.
        self.d_opt.zero_grad()
        fake = forecaster.generator(noise, condition).detach()
        d_loss = bce_loss(forecaster.discriminator(condition, real), self.ones) + bce_loss(
            forecaster.discriminator(condition, Tensor(fake.numpy())), self.zeros
        )
        d_loss.backward()
        self.d_opt.step()

        # Generator step: fool D + auxiliary L2.
        self.g_opt.zero_grad()
        generated = forecaster.generator(noise, condition)
        g_loss = bce_loss(forecaster.discriminator(condition, generated), self.ones)
        g_loss = g_loss + forecaster.l2_weight * mse_loss(generated, real)
        g_loss.backward()
        self.g_opt.step()
        return g_loss.item()


class GEGANForecaster(Forecaster):
    """GE-GAN adapted to forecast an unobserved region.

    Parameters
    ----------
    num_similar:
        How many similar observed locations condition the generator.
    noise_dim / hidden:
        Generator noise width and MLP hidden width.
    iterations:
        Adversarial training steps (each trains D then G on a batch).
    l2_weight:
        Weight of the generator's auxiliary L2 term.
    """

    #: predict() reseeds its noise generator per call, so a window's
    #: output depends on its position in the batch — the serving layer
    #: must not coalesce GE-GAN windows.
    stateless_predict = False

    def __init__(
        self,
        num_similar: int = 4,
        noise_dim: int = 8,
        hidden: int = 64,
        iterations: int = 300,
        batch_size: int = 32,
        learning_rate: float = 0.002,
        l2_weight: float = 0.3,
        embedding_dim: int = 16,
        seed: int = 0,
    ) -> None:
        self.num_similar = num_similar
        self.noise_dim = noise_dim
        self.hidden = hidden
        self.iterations = iterations
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.l2_weight = l2_weight
        self.embedding_dim = embedding_dim
        self.seed = seed
        self.name = "GE-GAN"
        self._fitted = False

    def fit(self, dataset, split, spec, train_steps) -> FitReport:
        began = time.perf_counter()
        rng = np.random.default_rng(self.seed)
        self.dataset = dataset
        self.split = split
        self.spec = spec
        observed = split.observed

        train_values = dataset.values[train_steps][:, observed]
        check_finite_observations(train_values, observed)
        self.scaler = StandardScaler().fit(train_values)
        self._scaled = self.scaler.transform(dataset.values)
        self._finite_inputs = FiniteInputCheck(dataset.values, observed, spec)

        # Transductive graph embedding over the full graph.
        distances = euclidean_distance_matrix(dataset.coords)
        adjacency = gaussian_kernel_adjacency(distances, threshold=0.05)
        self._embeddings = spectral_embedding(adjacency, dim=self.embedding_dim)
        self._similar = {
            int(node): most_similar_nodes(
                self._embeddings, int(node), observed, self.num_similar
            )
            for node in range(dataset.num_locations)
        }

        condition_dim = self.num_similar * spec.input_length
        weight_rng = init.default_rng(self.seed)
        self.generator = _Generator(
            condition_dim, self.noise_dim, spec.horizon, self.hidden, weight_rng
        )
        self.discriminator = _Discriminator(
            condition_dim, spec.horizon, self.hidden, weight_rng
        )
        usable = len(train_steps) - spec.total
        if usable < 1:
            raise ValueError("training period too short for the window spec")

        program = _GEGANProgram(self, usable, train_steps)
        history = Trainer(program, max_epochs=self.iterations, rng=rng).fit()

        self._fitted = True
        return FitReport(
            train_seconds=time.perf_counter() - began,
            epochs=self.iterations,
            history=list(history.train_losses),
        )

    def predict(self, window_starts: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("predict() called before fit()")
        self._finite_inputs.check(window_starts)
        spec = self.spec
        unobserved = self.split.unobserved
        rng = np.random.default_rng(self.seed + 1)
        window_starts = np.asarray(window_starts, dtype=int)
        out = np.empty((len(window_starts), spec.horizon, len(unobserved)))
        with no_grad():
            for row, s in enumerate(window_starts):
                conditions = []
                for target in unobserved:
                    sims = self._similar[int(target)]
                    window = self._scaled[s : s + spec.input_length][:, sims]
                    conditions.append(window.T.ravel())
                condition = Tensor(np.stack(conditions, axis=0))
                noise = Tensor(rng.normal(size=(len(unobserved), self.noise_dim)))
                generated = self.generator(noise, condition).numpy()  # (N_u, T')
                out[row] = self.scaler.inverse_transform(generated.T)
        return out
