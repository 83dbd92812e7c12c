"""IGNNK baseline (Wu, Zhuang, Labbe & Sun, AAAI 2021), adapted.

Inductive Graph Neural Network for Kriging: three diffusion graph
convolution (D-GCN) layers treat the time window as the node feature
vector, with random node sampling + random masking during training so the
model learns to reconstruct signals at unseen nodes.

Adaptation (paper §5.1.3): the original reconstructs the *input* window;
here the training target is the *future* window, turning imputation into
forecasting.  Everything else (diffusion convolution over forward/backward
transition matrices, random sub-sampling and masking) follows the original
design.

The paper's finding to reproduce: IGNNK "struggles in our task because
data missing at continuous locations makes it difficult for the GNNs to
learn the spatial correlation patterns" — random scattered masking at
training does not match a contiguous unobserved region at test time.
"""

from __future__ import annotations

import time

import numpy as np

from ..autograd import Tensor, no_grad
from ..data.missing import FiniteInputCheck, check_finite_observations
from ..data.scalers import StandardScaler
from ..engine import Trainer, TrainingProgram
from ..graph.distances import euclidean_distance_matrix
from ..interfaces import FitReport, Forecaster
from ..nn import Module, init, mse_loss
from ..nn.module import Parameter
from ..optim import Adam

__all__ = ["DiffusionGCN", "IGNNKNetwork", "IGNNKForecaster"]


def _transition_matrices(adjacency: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward and backward random-walk transition matrices."""
    adjacency = np.asarray(adjacency, dtype=float)
    out_deg = adjacency.sum(axis=1, keepdims=True)
    in_deg = adjacency.sum(axis=0, keepdims=True)
    forward = adjacency / np.maximum(out_deg, 1e-12)
    backward = (adjacency / np.maximum(in_deg, 1e-12)).T
    return forward, backward


class DiffusionGCN(Module):
    """One D-GCN layer: K-step diffusion over forward+backward walks.

    ``out = sum_{k=0..K-1} P_f^k Z W_f^k + P_b^k Z W_b^k`` with learned
    per-step weights (Li et al. 2018 diffusion convolution, as used by
    IGNNK).
    """

    def __init__(self, in_dim: int, out_dim: int, diffusion_steps: int = 2,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng if rng is not None else init.default_rng()
        self.diffusion_steps = diffusion_steps
        self.weights_forward = [
            Parameter(init.xavier_uniform((in_dim, out_dim), rng), name=f"wf{k}")
            for k in range(diffusion_steps)
        ]
        self.weights_backward = [
            Parameter(init.xavier_uniform((in_dim, out_dim), rng), name=f"wb{k}")
            for k in range(diffusion_steps)
        ]
        for index, param in enumerate(self.weights_forward):
            self._parameters[f"wf{index}"] = param
        for index, param in enumerate(self.weights_backward):
            self._parameters[f"wb{index}"] = param
        self.bias = Parameter(init.zeros((out_dim,)), name="bias")

    def forward(self, forward_t: Tensor, backward_t: Tensor, features: Tensor) -> Tensor:
        out = features @ self.weights_forward[0] + features @ self.weights_backward[0]
        walk_f, walk_b = features, features
        for k in range(1, self.diffusion_steps):
            walk_f = forward_t @ walk_f
            walk_b = backward_t @ walk_b
            out = out + walk_f @ self.weights_forward[k] + walk_b @ self.weights_backward[k]
        return out + self.bias


class IGNNKNetwork(Module):
    """Three stacked D-GCN layers with a residual middle block."""

    def __init__(self, input_length: int, horizon: int, hidden: int = 32,
                 diffusion_steps: int = 2, seed: int = 0) -> None:
        super().__init__()
        rng = init.default_rng(seed)
        self.layer1 = DiffusionGCN(input_length, hidden, diffusion_steps, rng=rng)
        self.layer2 = DiffusionGCN(hidden, hidden, diffusion_steps, rng=rng)
        self.layer3 = DiffusionGCN(hidden, horizon, diffusion_steps, rng=rng)

    def forward(self, forward_t: Tensor, backward_t: Tensor, features: Tensor) -> Tensor:
        hidden = self.layer1(forward_t, backward_t, features).relu()
        hidden = (self.layer2(forward_t, backward_t, hidden) + hidden).relu()
        return self.layer3(forward_t, backward_t, hidden)


class _IGNNKProgram(TrainingProgram):
    """One IGNNK training iteration per engine epoch.

    Each epoch draws a random observed sub-graph, masks a fraction of its
    nodes, and reconstructs the future window — IGNNK's random-sampling
    recipe expressed as a single-batch epoch.
    """

    def __init__(self, forecaster: "IGNNKForecaster", kernel_obs: np.ndarray,
                 sample_nodes: int, usable: int, train_steps: np.ndarray) -> None:
        self.forecaster = forecaster
        self.network = forecaster.network
        self.optimiser = Adam(self.network.parameters(), lr=forecaster.learning_rate)
        self.grad_clip = 5.0
        self.kernel_obs = kernel_obs
        self.sample_nodes = sample_nodes
        self.usable = usable
        self.train_steps = train_steps

    def batches(self, epoch: int, rng: np.random.Generator | None):
        forecaster = self.forecaster
        spec = forecaster.spec
        observed = forecaster.split.observed
        n_obs = len(observed)
        node_subset = rng.choice(n_obs, size=self.sample_nodes, replace=False)
        node_subset.sort()
        sub_kernel = self.kernel_obs[np.ix_(node_subset, node_subset)]
        forward_np, backward_np = _transition_matrices(sub_kernel)
        num_masked = max(1, int(round(forecaster.mask_ratio * self.sample_nodes)))
        masked_local = rng.choice(self.sample_nodes, size=num_masked, replace=False)

        starts = rng.integers(0, self.usable + 1, size=forecaster.batch_windows)
        xs, ys = [], []
        for s in starts:
            begin = int(self.train_steps[0]) + int(s)
            window = forecaster._scaled[begin : begin + spec.input_length][:, observed[node_subset]]
            target = forecaster._scaled[
                begin + spec.input_length : begin + spec.total
            ][:, observed[node_subset]]
            window = window.copy()
            window[:, masked_local] = 0.0
            xs.append(window.T)  # (nodes, T)
            ys.append(target.T)  # (nodes, T')
        yield (
            Tensor(forward_np),
            Tensor(backward_np),
            Tensor(np.stack(xs, axis=0)),
            Tensor(np.stack(ys, axis=0)),
        )

    def compute_loss(self, batch, rng: np.random.Generator | None):
        forward_t, backward_t, x, y = batch
        return mse_loss(self.network(forward_t, backward_t, x), y)


class IGNNKForecaster(Forecaster):
    """IGNNK adapted to forecast an unobserved region.

    Parameters
    ----------
    hidden:
        D-GCN hidden width.
    diffusion_steps:
        K — diffusion walk length per layer.
    sample_nodes:
        Nodes per random training sub-graph (IGNNK's n_o + n_m).
    mask_ratio:
        Fraction of sampled nodes masked (zeroed) per iteration.
    iterations:
        Training batches (each draws a fresh sub-graph and windows).
    """

    def __init__(
        self,
        hidden: int = 32,
        diffusion_steps: int = 2,
        sample_nodes: int | None = None,
        mask_ratio: float = 0.5,
        iterations: int = 150,
        batch_windows: int = 8,
        learning_rate: float = 0.005,
        sigma_ratio: float = 0.1,
        seed: int = 0,
    ) -> None:
        self.hidden = hidden
        self.diffusion_steps = diffusion_steps
        self.sample_nodes = sample_nodes
        self.mask_ratio = mask_ratio
        self.iterations = iterations
        self.batch_windows = batch_windows
        self.learning_rate = learning_rate
        self.sigma_ratio = sigma_ratio
        self.seed = seed
        self.name = "IGNNK"
        self._fitted = False

    def _kernel_adjacency(self, coords: np.ndarray) -> np.ndarray:
        distances = euclidean_distance_matrix(coords)
        off = distances[~np.eye(len(distances), dtype=bool)]
        sigma = max(float(off.std()), 1e-9)
        kernel = np.exp(-(distances ** 2) / (sigma ** 2))
        kernel[kernel < self.sigma_ratio] = 0.0
        return kernel

    def fit(self, dataset, split, spec, train_steps) -> FitReport:
        began = time.perf_counter()
        rng = np.random.default_rng(self.seed)
        self.dataset = dataset
        self.split = split
        self.spec = spec
        observed = split.observed
        n_obs = len(observed)

        train_values = dataset.values[train_steps][:, observed]
        check_finite_observations(train_values, observed)
        self.scaler = StandardScaler().fit(train_values)
        self._scaled = self.scaler.transform(dataset.values)
        self._finite_inputs = FiniteInputCheck(dataset.values, observed, spec)
        self._kernel_full = self._kernel_adjacency(dataset.coords)
        kernel_obs = self._kernel_full[np.ix_(observed, observed)]

        self.network = IGNNKNetwork(
            spec.input_length, spec.horizon, hidden=self.hidden,
            diffusion_steps=self.diffusion_steps, seed=self.seed,
        )

        sample_nodes = self.sample_nodes or max(4, int(0.75 * n_obs))
        sample_nodes = min(sample_nodes, n_obs)
        usable = len(train_steps) - spec.total
        if usable < 1:
            raise ValueError("training period too short for the window spec")

        program = _IGNNKProgram(self, kernel_obs, sample_nodes, usable, train_steps)
        history = Trainer(program, max_epochs=self.iterations, rng=rng).fit()

        # Precompute full-graph transitions for prediction.
        forward_np, backward_np = _transition_matrices(self._kernel_full)
        self._forward_full = Tensor(forward_np)
        self._backward_full = Tensor(backward_np)
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
        if len(window_starts) == 0:
            return np.empty((0, spec.horizon, len(unobserved)))
        outputs = []
        with no_grad():
            for begin in range(0, len(window_starts), 16):
                batch = np.asarray(window_starts, dtype=int)[begin : begin + 16]
                xs = []
                for s in batch:
                    window = self._scaled[s : s + spec.input_length].copy()
                    window[:, unobserved] = 0.0
                    xs.append(window.T)
                x = Tensor(np.stack(xs, axis=0))
                prediction = self.network(self._forward_full, self._backward_full, x)
                block = prediction.numpy()[:, unobserved, :].transpose(0, 2, 1)
                outputs.append(self.scaler.inverse_transform(block))
        return np.concatenate(outputs, axis=0)
