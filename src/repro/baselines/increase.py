"""INCREASE baseline (Zheng et al., WWW 2023), adapted.

Inductive graph representation learning for spatio-temporal kriging:
for every target location, the observations of its k nearest observed
neighbours are aggregated *in advance* under heterogeneous spatial
relations (spatial proximity and functional/POI similarity), a GRU encodes
each aggregated series, and a learned gate fuses the relation-specific
states before an MLP decodes the prediction.

Adaptation (paper §5.1.3): the decoder outputs the *future* window rather
than reconstructing the current one.

The paper's finding to reproduce: INCREASE is the strongest baseline but
"fails to utilise the global features of the graph as it only considers
the nearest neighbours" — with a contiguous unobserved region, the nearest
observed neighbours of interior targets are far away and its aggregation
degrades.
"""

from __future__ import annotations

import time

import numpy as np

from ..autograd import Tensor, no_grad, softmax, stack
from ..data.missing import FiniteInputCheck, check_finite_observations
from ..data.scalers import StandardScaler
from ..data.windows import gather_windows
from ..engine import Trainer, TrainingProgram
from ..graph.distances import euclidean_distance_matrix
from ..interfaces import FitReport, Forecaster
from ..nn import GRU, Linear, Module, init, mse_loss
from ..optim import Adam

__all__ = ["INCREASENetwork", "INCREASEForecaster"]


class INCREASENetwork(Module):
    """Relation-wise GRU encoders + gated fusion + MLP decoder."""

    def __init__(
        self,
        num_relations: int,
        horizon: int,
        hidden: int = 32,
        seed: int = 0,
    ) -> None:
        super().__init__()
        rng = init.default_rng(seed)
        self.num_relations = num_relations
        self.encoders = [GRU(1, hidden, rng=rng) for _ in range(num_relations)]
        for index, encoder in enumerate(self.encoders):
            self._modules[f"encoder{index}"] = encoder
        self.gate = Linear(hidden, 1, rng=rng)
        self.decode_hidden = Linear(hidden, hidden, rng=rng)
        self.decode_out = Linear(hidden, horizon, rng=rng)

    def forward(self, relation_inputs: list[Tensor]) -> Tensor:
        """``relation_inputs[r]`` is ``(batch, T, 1)``; returns ``(batch, T')``."""
        states = []
        for encoder, series in zip(self.encoders, relation_inputs):
            _seq, final = encoder(series)
            states.append(final)  # (batch, hidden)
        stacked = stack(states, axis=1)  # (batch, R, hidden)
        scores = self.gate(stacked)  # (batch, R, 1)
        weights = softmax(scores, axis=1)
        fused = (stacked * weights).sum(axis=1)  # (batch, hidden)
        return self.decode_out(self.decode_hidden(fused).relu())


def _relation_weights(
    scores: np.ndarray, neighbour_count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k neighbours and row-normalised weights from a score row."""
    order = np.argsort(scores)[::-1][:neighbour_count]
    raw = np.maximum(scores[order], 1e-9)
    return order, raw / raw.sum()


class _INCREASEProgram(TrainingProgram):
    """One INCREASE training iteration per engine epoch.

    Each epoch draws random (target, window) pairs among the observed
    locations and regresses the gated relation fusion onto the targets'
    future windows — a single-batch epoch under the shared Trainer.
    """

    def __init__(self, forecaster: "INCREASEForecaster", usable: int,
                 train_steps: np.ndarray) -> None:
        self.forecaster = forecaster
        self.network = forecaster.network
        self.optimiser = Adam(self.network.parameters(), lr=forecaster.learning_rate)
        self.grad_clip = 5.0
        self.usable = usable
        self.train_steps = train_steps

    def batches(self, epoch: int, rng: np.random.Generator | None):
        forecaster = self.forecaster
        spec = forecaster.spec
        observed = forecaster.split.observed
        targets = rng.choice(observed, size=forecaster.batch_size, replace=True)
        starts = rng.integers(0, self.usable + 1, size=forecaster.batch_size)
        windows = gather_windows(forecaster._scaled, int(self.train_steps[0]) + starts, spec.total)
        relation_batches: list[list[np.ndarray]] = [[] for _ in forecaster._scores]
        for target, window in zip(targets, windows[:, : spec.input_length]):
            sources = observed[observed != target]
            for r, series in enumerate(forecaster._aggregate(window, int(target), sources)):
                relation_batches[r].append(series)
        inputs = [
            Tensor(np.stack(batch, axis=0)[..., None]) for batch in relation_batches
        ]
        yield inputs, Tensor(windows[np.arange(len(targets)), spec.input_length :, targets])

    def compute_loss(self, batch, rng: np.random.Generator | None):
        inputs, y = batch
        return mse_loss(self.network(inputs), y)


class INCREASEForecaster(Forecaster):
    """INCREASE adapted to forecast a contiguous unobserved region.

    Parameters
    ----------
    num_neighbours:
        k — observed neighbours aggregated per relation.
    hidden:
        GRU/decoder width.
    iterations:
        Training batches; each draws random (target, window) pairs.
    batch_size:
        (target, window) pairs per batch.
    """

    def __init__(
        self,
        num_neighbours: int = 5,
        hidden: int = 32,
        iterations: int = 200,
        batch_size: int = 32,
        learning_rate: float = 0.005,
        seed: int = 0,
    ) -> None:
        self.num_neighbours = num_neighbours
        self.hidden = hidden
        self.iterations = iterations
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.seed = seed
        self.name = "INCREASE"
        self._fitted = False

    # ------------------------------------------------------------------
    def _relation_scores(self, dataset) -> list[np.ndarray]:
        """(N, N) similarity scores per relation: spatial, functional."""
        distances = euclidean_distance_matrix(dataset.coords)
        off = distances[~np.eye(len(distances), dtype=bool)]
        sigma = max(float(off.std()), 1e-9)
        spatial = np.exp(-(distances ** 2) / (sigma ** 2))
        poi = dataset.features.poi_counts
        norms = np.linalg.norm(poi, axis=1)
        functional = (poi @ poi.T) / np.maximum(np.outer(norms, norms), 1e-9)
        return [spatial, functional]

    def _aggregate(
        self, values_window: np.ndarray, target: int, sources: np.ndarray
    ) -> list[np.ndarray]:
        """Aggregated neighbour series per relation for one target.

        ``values_window`` is ``(T, N)`` scaled values; sources are the
        global ids the target may aggregate from.
        """
        series = []
        for scores in self._scores:
            row = scores[target, sources]
            order, weights = _relation_weights(row, self.num_neighbours)
            picked = sources[order]
            series.append(values_window[:, picked] @ weights)
        return series

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
        self._scores = self._relation_scores(dataset)

        self.network = INCREASENetwork(
            num_relations=len(self._scores), horizon=spec.horizon,
            hidden=self.hidden, seed=self.seed,
        )

        usable = len(train_steps) - spec.total
        if usable < 1:
            raise ValueError("training period too short for the window spec")

        program = _INCREASEProgram(self, usable, train_steps)
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
        observed = self.split.observed
        unobserved = self.split.unobserved
        window_starts = np.asarray(window_starts, dtype=int)
        out = np.empty((len(window_starts), spec.horizon, len(unobserved)))
        with no_grad():
            for w_begin in range(0, len(window_starts), 8):
                starts = window_starts[w_begin : w_begin + 8]
                chunk = gather_windows(self._scaled, starts, spec.input_length)
                relation_batches: list[list[np.ndarray]] = [[] for _ in self._scores]
                for window in chunk:
                    for target in unobserved:
                        for r, series in enumerate(
                            self._aggregate(window, int(target), observed)
                        ):
                            relation_batches[r].append(series)
                inputs = [
                    Tensor(np.stack(batch, axis=0)[..., None]) for batch in relation_batches
                ]
                prediction = self.network(inputs).numpy()  # (chunk*N_u, T')
                prediction = prediction.reshape(len(chunk), len(unobserved), spec.horizon)
                out[w_begin : w_begin + len(chunk)] = self.scaler.inverse_transform(
                    prediction.transpose(0, 2, 1)
                )
        return out
