"""Shared forecaster interface.

All models (STSM and the adapted baselines) implement :class:`Forecaster`:
they are *fitted* on a dataset + spatial split (the observed region) and
then asked to *predict* the unobserved locations' future windows at given
window-start time indices.  The evaluator only relies on this protocol.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from .data.dataset import SpatioTemporalDataset
from .data.splits import SpaceSplit
from .data.windows import WindowSpec

__all__ = ["Forecaster", "FitReport"]


@dataclass
class FitReport:
    """Book-keeping returned by :meth:`Forecaster.fit`.

    Attributes
    ----------
    train_seconds:
        Wall-clock training time (Table 5's "Train" column).
    epochs:
        Number of completed epochs.
    history:
        Per-epoch loss values (model specific).
    """

    train_seconds: float = 0.0
    epochs: int = 0
    history: list[float] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


class Forecaster(abc.ABC):
    """Abstract base for models that forecast an unobserved region.

    Lifecycle: construct with hyper-parameters, call :meth:`fit` once with
    the dataset and split, then :meth:`predict` any number of times.
    """

    #: Human-readable model name used in result tables.
    name: str = "forecaster"

    #: Whether ``predict`` gives each window the same answer regardless
    #: of which other windows share the batch.  True for deterministic
    #: per-window models; GE-GAN sets False (its noise generator reseeds
    #: per call, coupling outputs to batch composition).  The serving
    #: layer batches only stateless models and falls back to per-window
    #: calls otherwise.
    stateless_predict: bool = True

    @abc.abstractmethod
    def fit(
        self,
        dataset: SpatioTemporalDataset,
        split: SpaceSplit,
        spec: WindowSpec,
        train_steps: np.ndarray,
    ) -> FitReport:
        """Train on the observed region over the training time steps.

        Parameters
        ----------
        dataset:
            Full dataset; implementations must only read values at
            ``split.observed`` locations (the unobserved region's data
            exists in the container but is off-limits during fitting).
        split:
            The spatial partition (train/validation observed, test
            unobserved).
        spec:
            Input/horizon window lengths.
        train_steps:
            Time-step indices available for training (first 70%).
        """

    @abc.abstractmethod
    def predict(self, window_starts: np.ndarray) -> np.ndarray:
        """Forecast the unobserved locations for each window start.

        Parameters
        ----------
        window_starts:
            Global time indices ``t0``; the input window is
            ``[t0, t0 + T)`` and predictions cover ``[t0 + T, t0 + T + T')``.
            A start whose input window leaves the dataset's steps raises
            :class:`~repro.data.windows.WindowStartError`, a ``ValueError``
            (:func:`~repro.data.windows.check_window_starts`).

        Returns
        -------
        ``(len(window_starts), T', N_u)`` predictions for the unobserved
        locations, in the order of ``split.unobserved``.
        """
