"""Graph-regularised low-rank matrix completion baseline (related work §2.2).

The paper's related work covers tensor/matrix completion for kriging
[Bahadori et al. 2014; Takeuchi et al. 2017; Zhou et al. 2012]: factorise
the observation matrix ``Y ≈ U Vᵀ`` with temporal factors ``U ∈ R^{T×k}``
and location factors ``V ∈ R^{N×k}``, filling unobserved entries from the
low-rank structure.  A graph Laplacian regulariser on ``V`` (kernelised
probabilistic matrix factorisation, Zhou et al.) propagates factor values
from observed to unobserved locations — without it, the unobserved rows of
``V`` are unconstrained because they never appear in a data term, which is
exactly the transductive weakness the paper describes.

Forecasting adaptation: the temporal factors for *future* steps are
extrapolated with a seasonal AR(1) per factor dimension — the time-of-day
profile of ``U`` plus an autoregressive anomaly, mirroring autoregressive
tensor factorisation [Takeuchi et al. 2017].

The objective optimised by alternating least squares (ALS)::

    min_{U,V}  ‖P_Ω(Y − U Vᵀ)‖²_F + λ (‖U‖²_F + ‖V‖²_F) + γ tr(Vᵀ L V)

where ``Ω`` covers (training steps × observed locations) only and ``L`` is
the unnormalised Laplacian of the Gaussian-kernel sensor graph.

The model is *transductive*: adding a new location requires re-fitting —
one of the stated motivations for the inductive neural models.
"""

from __future__ import annotations

import time

import numpy as np

from ..data.missing import check_finite_observations
from ..data.scalers import StandardScaler
from ..data.windows import check_window_starts
from ..engine import Trainer, TrainingProgram
from ..graph.adjacency import gaussian_kernel_adjacency
from ..graph.distances import euclidean_distance_matrix
from ..interfaces import FitReport, Forecaster

__all__ = ["MatrixCompletionForecaster", "als_graph_completion", "graph_laplacian"]


def graph_laplacian(adjacency: np.ndarray) -> np.ndarray:
    """Unnormalised Laplacian ``L = D − A`` (self-loops removed)."""
    adjacency = np.asarray(adjacency, dtype=float).copy()
    np.fill_diagonal(adjacency, 0.0)
    return np.diag(adjacency.sum(axis=1)) - adjacency


def als_graph_completion(
    values: np.ndarray,
    mask: np.ndarray,
    laplacian: np.ndarray,
    rank: int,
    ridge: float = 0.1,
    graph_weight: float = 1.0,
    iterations: int = 30,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Alternate U and V updates for graph-regularised completion.

    Parameters
    ----------
    values:
        ``(T, N)`` observation matrix; entries outside ``mask`` are ignored
        (may be anything, e.g. zeros for the unobserved region).
    mask:
        ``(T, N)`` boolean; True where the entry participates in the loss.
    laplacian:
        ``(N, N)`` graph Laplacian coupling location factors.
    rank:
        Number of latent factors ``k``.
    ridge:
        λ — Frobenius penalty on both factors.
    graph_weight:
        γ — strength of the Laplacian smoothness term.
    iterations:
        ALS sweeps (each sweep: closed-form U rows, then Jacobi V update).

    Returns
    -------
    ``(U, V, history)`` with ``U (T, k)``, ``V (N, k)`` and the per-sweep
    masked reconstruction RMSE.

    Notes
    -----
    The U update is exact per time step (independent ridge regressions on
    the observed columns).  The V update handles the Laplacian coupling via
    a Jacobi step: for location ``i`` with graph degree ``d_i``::

        (Σ_t m_ti u_t u_tᵀ + (λ + γ d_i) I) v_i
            = Σ_t m_ti y_ti u_t + γ Σ_j A_ij v_j

    using the *current* neighbour factors on the right-hand side.  Fully
    unobserved locations (zero data rows) still receive factors from their
    neighbours through the γ term, which is the mechanism under test.
    """
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    num_steps, num_locations = values.shape
    if mask.shape != values.shape:
        raise ValueError("mask shape must match values shape")
    rng = np.random.default_rng(seed)
    program = _ALSProgram(
        values=values,
        mask=mask,
        laplacian=laplacian,
        factors_u=0.1 * rng.standard_normal((num_steps, rank)),
        factors_v=0.1 * rng.standard_normal((num_locations, rank)),
        ridge=ridge,
        graph_weight=graph_weight,
    )
    Trainer(program, max_epochs=iterations).fit()
    # program.rmse_history skips empty-mask sweeps (which have no
    # residual to report) but keeps genuine NaN RMSEs visible, exactly
    # like the pre-engine loop.
    return program.factors_u, program.factors_v, program.rmse_history


class _ALSProgram(TrainingProgram):
    """One ALS sweep (closed-form U rows, Jacobi V update) per epoch.

    No autograd, no optimiser: the whole gradient machinery of the
    default ``train_batch`` is bypassed by overriding ``run_epoch``.  The
    reported epoch loss is the masked reconstruction RMSE after the
    sweep.
    """

    def __init__(
        self,
        values: np.ndarray,
        mask: np.ndarray,
        laplacian: np.ndarray,
        factors_u: np.ndarray,
        factors_v: np.ndarray,
        ridge: float,
        graph_weight: float,
    ) -> None:
        self.values = values
        self.mask = mask
        self.factors_u = factors_u
        self.factors_v = factors_v
        self.ridge = ridge
        self.graph_weight = graph_weight
        self.adjacency = np.diag(np.diag(laplacian)) - laplacian  # recover A from L
        self.degrees = np.diag(laplacian)
        self.eye = np.eye(factors_u.shape[1])
        self.masked = np.where(mask, values, 0.0)
        #: Masked reconstruction RMSE per sweep that had a residual.
        self.rmse_history: list[float] = []

    def run_epoch(self, epoch: int, rng: np.random.Generator | None) -> float:
        values, mask = self.values, self.mask
        factors_u, factors_v = self.factors_u, self.factors_v
        eye = self.eye

        # --- U update: exact ridge per time step.
        for t in range(len(values)):
            cols = mask[t]
            if not cols.any():
                factors_u[t] = 0.0
                continue
            v_obs = factors_v[cols]
            gram = v_obs.T @ v_obs + self.ridge * eye
            factors_u[t] = np.linalg.solve(gram, v_obs.T @ values[t, cols])

        # --- V update: Jacobi step with Laplacian coupling.
        new_v = np.empty_like(factors_v)
        data_gram = factors_u.T @ factors_u  # reused for fully-observed rows
        for i in range(values.shape[1]):
            rows = mask[:, i]
            if rows.all():
                gram = data_gram.copy()
            else:
                u_obs = factors_u[rows]
                gram = u_obs.T @ u_obs
            gram += (self.ridge + self.graph_weight * self.degrees[i]) * eye
            rhs = factors_u.T @ self.masked[:, i]
            rhs += self.graph_weight * (self.adjacency[i] @ factors_v)
            new_v[i] = np.linalg.solve(gram, rhs)
        self.factors_v = factors_v = new_v

        residual = (values - factors_u @ factors_v.T)[mask]
        if residual.size:
            rmse = float(np.sqrt((residual ** 2).mean()))
            self.rmse_history.append(rmse)
            return rmse
        # Empty mask: nothing to report; NaN marks the skipped sweep in
        # the Trainer history without entering rmse_history.
        return float("nan")


class MatrixCompletionForecaster(Forecaster):
    """Transductive graph-regularised completion adapted to forecasting.

    Parameters
    ----------
    rank:
        Latent dimensionality of the factorisation.
    ridge, graph_weight, iterations:
        See :func:`als_graph_completion`.
    ar_weight:
        AR(1) coefficient shrinkage for the temporal-factor extrapolation;
        the coefficient is estimated per factor and clipped to
        ``[-ar_weight, ar_weight]`` for stability.
    epsilon:
        Gaussian-kernel threshold for the sensor graph used in ``L``.
    """

    name = "MatrixCompletion"

    def __init__(
        self,
        rank: int = 8,
        ridge: float = 0.1,
        graph_weight: float = 2.0,
        iterations: int = 20,
        ar_weight: float = 0.95,
        epsilon: float = 0.05,
        seed: int = 0,
    ) -> None:
        self.rank = rank
        self.ridge = ridge
        self.graph_weight = graph_weight
        self.iterations = iterations
        self.ar_weight = ar_weight
        self.epsilon = epsilon
        self.seed = seed
        self._fitted = False

    def fit(self, dataset, split, spec, train_steps) -> FitReport:
        began = time.perf_counter()
        self.dataset = dataset
        self.split = split
        self.spec = spec
        train_steps = np.asarray(train_steps, dtype=int)
        self._train_end = int(train_steps[-1])

        observed = split.observed
        train_values = dataset.values[train_steps][:, observed]
        check_finite_observations(train_values, observed)
        self.scaler = StandardScaler().fit(train_values)
        scaled = self.scaler.transform(dataset.values)

        mask = np.zeros(dataset.values.shape, dtype=bool)
        mask[np.ix_(train_steps, observed)] = True

        distances = euclidean_distance_matrix(dataset.coords)
        adjacency = gaussian_kernel_adjacency(distances, threshold=self.epsilon)
        laplacian = graph_laplacian(adjacency)

        self.factors_u, self.factors_v, history = als_graph_completion(
            scaled,
            mask,
            laplacian,
            rank=self.rank,
            ridge=self.ridge,
            graph_weight=self.graph_weight,
            iterations=self.iterations,
            seed=self.seed,
        )

        # Seasonal AR(1) model of the temporal factors, fitted on the
        # training rows: u_t ≈ profile[tod(t)] + φ ⊙ (u_{t-1} − profile).
        steps_per_day = dataset.steps_per_day
        u_train = self.factors_u[train_steps]
        tod = train_steps % steps_per_day
        profile = np.zeros((steps_per_day, self.rank))
        overall = u_train.mean(axis=0)
        for interval in range(steps_per_day):
            rows = u_train[tod == interval]
            profile[interval] = rows.mean(axis=0) if rows.size else overall
        self.u_profile = profile

        anomaly = u_train - profile[tod]
        lagged, current = anomaly[:-1], anomaly[1:]
        denom = np.maximum((lagged ** 2).sum(axis=0), 1e-9)
        phi = (lagged * current).sum(axis=0) / denom
        self.phi = np.clip(phi, -self.ar_weight, self.ar_weight)

        self._fitted = True
        return FitReport(
            train_seconds=time.perf_counter() - began,
            epochs=self.iterations,
            history=history,
            extra={"phi": self.phi.tolist()},
        )

    def _future_factors(self, last_step: int) -> np.ndarray:
        """Extrapolate temporal factors ``(T', k)`` past ``last_step``."""
        steps_per_day = self.dataset.steps_per_day
        # Anchor on the last *training-window* factor row available; inputs
        # beyond the training period re-use the seasonal profile as state.
        if last_step <= self._train_end:
            state = self.factors_u[last_step] - self.u_profile[last_step % steps_per_day]
        else:
            state = np.zeros(self.rank)
        horizon = self.spec.horizon
        out = np.empty((horizon, self.rank))
        for step in range(horizon):
            state = self.phi * state
            interval = (last_step + 1 + step) % steps_per_day
            out[step] = self.u_profile[interval] + state
        return out

    def predict(self, window_starts: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("predict() called before fit()")
        check_window_starts(window_starts, self.dataset.num_steps, self.spec)
        spec = self.spec
        unobserved = self.split.unobserved
        window_starts = np.asarray(window_starts, dtype=int)
        v_u = self.factors_v[unobserved]  # (N_u, k)
        out = np.empty((len(window_starts), spec.horizon, len(unobserved)))
        for row, start in enumerate(window_starts):
            last_step = int(start) + spec.input_length - 1
            future_u = self._future_factors(last_step)  # (T', k)
            out[row] = future_u @ v_u.T
        return self.scaler.inverse_transform(out)
