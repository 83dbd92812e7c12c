"""Classical Gaussian-process kriging baseline (related work §2.2).

The paper cites Gaussian process regression [Williams & Rasmussen 2006] as
the classic solution to the kriging problem before turning to neural
models, noting that "it suffers from low efficiency and poor scalability".
We implement it so the benchmark tables can show where the classical
method sits relative to the neural baselines and STSM on the
contiguous-unobserved-region task.

Kriging interpolates *spatially at one time step*; it has no notion of the
future.  To adapt it to forecasting (the same adaptation the paper applies
to the neural imputation baselines) we use a two-stage scheme:

1. *Temporal stage* — forecast each **observed** location's future window
   with a seasonal-persistence model: the training-period time-of-day
   profile of that sensor, level-shifted towards the last observed value
   with a decaying weight.
2. *Spatial stage* — ordinary kriging transfers, per future step, the
   observed-location forecasts onto the unobserved locations using weights
   derived from a fitted covariance model.

The covariance model is a Gaussian (squared-exponential) kernel with a
nugget; its length-scale is selected on the training data by leave-one-out
cross-validation over a small grid — the classical variogram-fitting role.
Ordinary kriging (weights constrained to sum to one) keeps the predictor
unbiased under an unknown constant mean, which matters here because the
unobserved region is *outside* the observed sensors' convex hull for the
paper's contiguous splits — exactly the regime where simple kriging's
pull-to-zero-mean hurts.
"""

from __future__ import annotations

import time

import numpy as np

from ..data.missing import FiniteInputCheck, check_finite_observations
from ..data.scalers import StandardScaler
from ..graph.distances import euclidean_distance_matrix
from ..interfaces import FitReport, Forecaster

__all__ = [
    "GPKrigingForecaster",
    "gaussian_covariance",
    "ordinary_kriging_weights",
    "loo_lengthscale_search",
]


def gaussian_covariance(
    distances: np.ndarray, lengthscale: float, nugget: float = 1e-4
) -> np.ndarray:
    """Squared-exponential covariance ``exp(-d² / (2ℓ²))`` plus a nugget.

    The nugget is added on the diagonal only (measurement noise); it also
    keeps the solve well-conditioned when sensors nearly coincide.
    """
    if lengthscale <= 0:
        raise ValueError(f"lengthscale must be positive, got {lengthscale}")
    cov = np.exp(-(distances ** 2) / (2.0 * lengthscale ** 2))
    if cov.shape[0] == cov.shape[1]:
        cov = cov + nugget * np.eye(cov.shape[0])
    return cov


def ordinary_kriging_weights(
    cov_oo: np.ndarray, cov_uo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the ordinary-kriging system for every target at once.

    Parameters
    ----------
    cov_oo:
        ``(N_o, N_o)`` covariance among observed locations (with nugget).
    cov_uo:
        ``(N_u, N_o)`` covariance between targets and observed locations.

    Returns
    -------
    weights:
        ``(N_u, N_o)`` kriging weights; each row sums to one.
    variance:
        ``(N_u,)`` ordinary-kriging variance (relative units, since the
        kernel here is a correlation function scaled by the process sill).

    Notes
    -----
    The augmented system with the Lagrange multiplier ``μ`` is::

        [ C_oo  1 ] [ w ]   [ c_uo ]
        [ 1ᵀ    0 ] [ μ ] = [  1   ]

    solved for all targets simultaneously via one factorisation.
    """
    n_o = cov_oo.shape[0]
    n_u = cov_uo.shape[0]
    system = np.zeros((n_o + 1, n_o + 1))
    system[:n_o, :n_o] = cov_oo
    system[:n_o, n_o] = 1.0
    system[n_o, :n_o] = 1.0
    rhs = np.zeros((n_o + 1, n_u))
    rhs[:n_o] = cov_uo.T
    rhs[n_o] = 1.0
    solution = np.linalg.solve(system, rhs)
    weights = solution[:n_o].T
    multiplier = solution[n_o]
    # sigma² = C(0) - wᵀ c_uo - μ ; C(0) = 1 for a correlation kernel.
    variance = 1.0 - np.einsum("ij,ij->i", weights, cov_uo) - multiplier
    return weights, np.maximum(variance, 0.0)


def loo_lengthscale_search(
    coords: np.ndarray,
    values: np.ndarray,
    candidates: np.ndarray,
    nugget: float = 1e-2,
) -> float:
    """Pick the kernel length-scale by leave-one-out error on observed data.

    Parameters
    ----------
    coords:
        ``(N_o, 2)`` observed sensor coordinates.
    values:
        ``(S, N_o)`` sample of (scaled) observation rows used to score.
    candidates:
        Length-scales to try (metres).

    For each candidate we krige every sensor from the remaining sensors and
    score the mean squared leave-one-out error; the smallest wins.  This is
    the cross-validation analogue of variogram fitting and is robust to the
    strong diurnal non-stationarity of traffic data because it is applied
    to z-scored rows.
    """
    if len(candidates) == 0:
        raise ValueError("need at least one length-scale candidate")
    distances = euclidean_distance_matrix(coords)
    n_o = len(coords)
    best_scale, best_error = float(candidates[0]), np.inf
    for lengthscale in candidates:
        cov = gaussian_covariance(distances, float(lengthscale), nugget)
        error = 0.0
        for leave in range(n_o):
            keep = np.arange(n_o) != leave
            weights, _ = ordinary_kriging_weights(
                cov[np.ix_(keep, keep)], cov[None, leave, keep]
            )
            predicted = values[:, keep] @ weights[0]
            error += float(((predicted - values[:, leave]) ** 2).mean())
        if error < best_error:
            best_error, best_scale = error, float(lengthscale)
    return best_scale


class GPKrigingForecaster(Forecaster):
    """Ordinary kriging over seasonal-persistence forecasts.

    Parameters
    ----------
    nugget:
        Diagonal noise added to the observed-observed covariance.
    level_decay:
        Per-step decay of the last-observation level shift in the seasonal
        persistence stage; ``0`` reduces to the pure time-of-day profile,
        values near ``1`` approach pure persistence.
    lengthscale_candidates:
        Grid for the leave-one-out search, as fractions of the maximum
        pairwise sensor distance.  ``None`` uses a default geometric grid.
    loo_sample_rows:
        Number of training rows sampled for the leave-one-out score (keeps
        the classical method's notorious cost bounded).
    """

    name = "GP-Kriging"

    def __init__(
        self,
        nugget: float = 1e-2,
        level_decay: float = 0.9,
        lengthscale_candidates: np.ndarray | None = None,
        loo_sample_rows: int = 64,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= level_decay <= 1.0:
            raise ValueError(f"level_decay must be in [0, 1], got {level_decay}")
        self.nugget = nugget
        self.level_decay = level_decay
        self.lengthscale_candidates = lengthscale_candidates
        self.loo_sample_rows = loo_sample_rows
        self.seed = seed
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
        self._finite_inputs = FiniteInputCheck(dataset.values, observed, spec)
        scaled = self.scaler.transform(train_values)

        # Seasonal profile per observed sensor (time-of-day mean).
        steps_per_day = dataset.steps_per_day
        tod = np.asarray(train_steps) % steps_per_day
        profile = np.zeros((steps_per_day, len(observed)))
        overall = scaled.mean(axis=0)
        for interval in range(steps_per_day):
            rows = scaled[tod == interval]
            profile[interval] = rows.mean(axis=0) if rows.size else overall
        self.profile = profile

        # Covariance model: length-scale by leave-one-out cross-validation.
        coords_o = dataset.coords[observed]
        max_dist = float(euclidean_distance_matrix(coords_o).max())
        if self.lengthscale_candidates is not None:
            candidates = np.asarray(self.lengthscale_candidates, dtype=float)
        else:
            candidates = max_dist * np.array([0.05, 0.1, 0.2, 0.4, 0.8])
        sample_size = min(self.loo_sample_rows, len(scaled))
        sample = scaled[rng.choice(len(scaled), size=sample_size, replace=False)]
        self.lengthscale = loo_lengthscale_search(
            coords_o, sample, candidates, nugget=self.nugget
        )

        # Kriging weights observed -> unobserved are time-invariant.
        distances = euclidean_distance_matrix(dataset.coords)
        cov_oo = gaussian_covariance(
            distances[np.ix_(observed, observed)], self.lengthscale, self.nugget
        )
        cov_uo = gaussian_covariance(
            distances[np.ix_(split.unobserved, observed)], self.lengthscale
        )
        self.weights, self.kriging_variance = ordinary_kriging_weights(cov_oo, cov_uo)

        self._fitted = True
        return FitReport(
            train_seconds=time.perf_counter() - began,
            epochs=1,
            extra={
                "lengthscale": self.lengthscale,
                "mean_kriging_variance": float(self.kriging_variance.mean()),
            },
        )

    def _forecast_observed(self, start: int) -> np.ndarray:
        """Seasonal-persistence forecast ``(T', N_o)`` for observed sensors."""
        spec = self.spec
        steps_per_day = self.dataset.steps_per_day
        observed = self.split.observed
        last_step = start + spec.input_length - 1
        last = self.scaler.transform(self.dataset.values[last_step, observed])
        anomaly = last - self.profile[last_step % steps_per_day]
        horizon_ids = (last_step + 1 + np.arange(spec.horizon)) % steps_per_day
        decay = self.level_decay ** (1 + np.arange(spec.horizon))
        return self.profile[horizon_ids] + decay[:, None] * anomaly[None, :]

    def predict(self, window_starts: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("predict() called before fit()")
        self._finite_inputs.check(window_starts)
        spec = self.spec
        window_starts = np.asarray(window_starts, dtype=int)
        n_u = len(self.split.unobserved)
        out = np.empty((len(window_starts), spec.horizon, n_u))
        for row, start in enumerate(window_starts):
            observed_future = self._forecast_observed(int(start))  # (T', N_o)
            out[row] = observed_future @ self.weights.T
        return self.scaler.inverse_transform(out)

    def predict_with_variance(
        self, window_starts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Predictions plus the (time-invariant) ordinary-kriging variance.

        The variance is in *scaled* (unit-sill) terms and quantifies how far
        each unobserved location sits from the observed network — the
        classical uncertainty map for sensor-placement decisions.
        """
        predictions = self.predict(window_starts)
        return predictions, self.kriging_variance.copy()

