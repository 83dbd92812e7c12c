"""Uncertainty quantification on top of STSM (extension).

The paper forecasts point values; its related work cites DeepSTUQ
[Qian et al. 2023] as the uncertainty-aware contrast.  Forecasting a
region *with no sensors at all* is precisely where calibrated uncertainty
matters most — a deployment decision ("do we need sensors here?") depends
on how wide the model's error bars are, not just its point estimate.

Two standard predictive-distribution constructions are provided:

* :class:`MCDropoutForecaster` — Monte-Carlo dropout [Gal & Ghahramani
  2016]: one trained STSM network, sampled S times with dropout active at
  prediction time.  Cheap (one training run) but only captures the
  network's epistemic noise around its learned function.
* :class:`DeepEnsembleForecaster` — a deep ensemble over training seeds:
  k independently trained members whose predictions form the sample set.
  More expensive, typically better calibrated; works with *any*
  :class:`~repro.interfaces.Forecaster` factory, not just STSM.

Both expose ``predict`` (the ensemble mean — they remain drop-in point
forecasters) and ``predict_samples``; :mod:`repro.evaluation.intervals`
turns the samples into intervals and scores them.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

import numpy as np

from ..interfaces import FitReport, Forecaster
from .model import STSMForecaster

__all__ = [
    "MCDropoutForecaster",
    "DeepEnsembleForecaster",
]


class MCDropoutForecaster(Forecaster):
    """Monte-Carlo dropout sampling around a single STSM model.

    Parameters
    ----------
    base:
        An (unfitted) :class:`STSMForecaster`; its config must have a
        non-zero dropout rate, otherwise all samples coincide and the
        intervals collapse (detected and rejected at fit time).
    num_samples:
        Stochastic forward passes per prediction.
    """

    name = "STSM-MCDropout"

    def __init__(self, base: STSMForecaster, num_samples: int = 20) -> None:
        if num_samples < 2:
            raise ValueError(f"num_samples must be >= 2, got {num_samples}")
        self.base = base
        self.num_samples = num_samples
        self._fitted = False

    def fit(self, dataset, split, spec, train_steps) -> FitReport:
        if getattr(self.base.config, "dropout", 0.0) <= 0.0:
            raise ValueError(
                "MC dropout needs config.dropout > 0; with rate 0 every "
                "stochastic pass is identical and intervals are degenerate"
            )
        report = self.base.fit(dataset, split, spec, train_steps)
        self._fitted = True
        return report

    def predict_samples(self, window_starts: np.ndarray) -> np.ndarray:
        """``(S, num_windows, horizon, N_u)`` stochastic predictions."""
        if not self._fitted:
            raise RuntimeError("predict_samples() called before fit()")
        samples = [
            self.base.predict(window_starts, stochastic=True)
            for _ in range(self.num_samples)
        ]
        return np.stack(samples, axis=0)

    def predict(self, window_starts: np.ndarray) -> np.ndarray:
        """MC mean — a point forecast usable anywhere a Forecaster is."""
        return self.predict_samples(window_starts).mean(axis=0)


class DeepEnsembleForecaster(Forecaster):
    """Seed ensemble over any forecaster factory.

    Parameters
    ----------
    member_factory:
        ``seed -> Forecaster``; called with ``num_members`` distinct seeds.
        For STSM, differing seeds change both the weight initialisation and
        the per-epoch masking draws, giving genuinely diverse members.
    num_members:
        Ensemble size (k); 3–5 is the usual cost/quality sweet spot.
    seeds:
        Explicit member seeds; defaults to ``0..k-1``.
    """

    name = "DeepEnsemble"

    def __init__(
        self,
        member_factory: Callable[[int], Forecaster],
        num_members: int = 5,
        seeds: Sequence[int] | None = None,
    ) -> None:
        if num_members < 2:
            raise ValueError(f"num_members must be >= 2, got {num_members}")
        self.member_factory = member_factory
        self.seeds = list(seeds) if seeds is not None else list(range(num_members))
        if len(self.seeds) != num_members:
            raise ValueError(
                f"got {len(self.seeds)} seeds for {num_members} members"
            )
        self.members: list[Forecaster] = []
        self._fitted = False

    def fit(self, dataset, split, spec, train_steps) -> FitReport:
        began = time.perf_counter()
        self.members = [self.member_factory(seed) for seed in self.seeds]
        reports = [
            member.fit(dataset, split, spec, train_steps) for member in self.members
        ]
        self._fitted = True
        return FitReport(
            train_seconds=time.perf_counter() - began,
            epochs=max(report.epochs for report in reports),
            extra={"member_train_seconds": [r.train_seconds for r in reports]},
        )

    def predict_samples(self, window_starts: np.ndarray) -> np.ndarray:
        """``(k, num_windows, horizon, N_u)`` member predictions."""
        if not self._fitted:
            raise RuntimeError("predict_samples() called before fit()")
        return np.stack(
            [member.predict(window_starts) for member in self.members], axis=0
        )

    def predict(self, window_starts: np.ndarray) -> np.ndarray:
        """Ensemble-mean point forecast."""
        return self.predict_samples(window_starts).mean(axis=0)
