"""Missing-at-times utilities (the paper's Fig. 1(a) problem setting).

The paper taxonomises incomplete spatio-temporal data into three settings:
(a) data missing at *times*, (b) data missing at scattered *locations*,
(c) a contiguous unobserved region (its focus).  The repository covers (b)
via :func:`~repro.data.splits.scattered_split` and (c) via the standard
splits; this module covers (a): masks that knock out observations in time
(random dropout or contiguous outages per sensor) and simple imputers to
repair them, so users can combine temporal missingness with the
unobserved-region task.  Every model that fits on observed readings
(STSM, IGNNK, INCREASE, GE-GAN, matrix completion, GP-Kriging and the
historical average) refuses an observed training reading the imputers
left non-finite (:func:`check_finite_observations`).  At predict time
STSM refuses one in any observed step, and IGNNK, INCREASE, GE-GAN,
GP-Kriging and the two persistence references refuse one in a requested
input window (:class:`FiniteInputCheck`).
"""

from __future__ import annotations

import numpy as np

from .windows import WindowSpec, check_window_starts

__all__ = [
    "NonFiniteObservationsError",
    "FiniteInputCheck",
    "check_finite_observations",
    "random_missing_mask",
    "block_missing_mask",
    "apply_missing",
    "impute_forward_fill",
    "impute_linear",
]


def random_missing_mask(
    shape: tuple[int, int],
    rate: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Bernoulli missing mask: True marks a missing (time, sensor) cell."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"rate must be in [0, 1), got {rate}")
    return rng.random(shape) < rate


def block_missing_mask(
    shape: tuple[int, int],
    rate: float,
    rng: np.random.Generator,
    mean_block: int = 12,
) -> np.ndarray:
    """Contiguous-outage mask: sensors fail for stretches of time.

    Models transmission faults / sensor downtime: per sensor, outage
    blocks with geometric lengths (mean ``mean_block``) are placed until
    the target missing rate is reached.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"rate must be in [0, 1), got {rate}")
    if mean_block <= 0:
        raise ValueError("mean_block must be positive")
    steps, sensors = shape
    mask = np.zeros(shape, dtype=bool)
    target_per_sensor = int(round(rate * steps))
    for sensor in range(sensors):
        missing = 0
        guard = 0
        while missing < target_per_sensor and guard < 100:
            guard += 1
            start = int(rng.integers(0, steps))
            length = max(1, int(rng.geometric(1.0 / mean_block)))
            stop = min(steps, start + length)
            before = mask[start:stop, sensor].sum()
            mask[start:stop, sensor] = True
            missing += (stop - start) - before
    return mask


def apply_missing(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Return a copy of ``values`` with masked cells set to NaN."""
    values = np.asarray(values, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != values.shape:
        raise ValueError(f"mask shape {mask.shape} does not match values {values.shape}")
    out = values.copy()
    out[mask] = np.nan
    return out


def impute_forward_fill(values: np.ndarray) -> np.ndarray:
    """Last-observation-carried-forward along time (NaNs filled).

    Leading NaNs fall back to the first observed value of that sensor; a
    fully-missing sensor column falls back to the global mean.
    """
    values = np.asarray(values, dtype=float)
    out = values.copy()
    steps, sensors = out.shape
    global_mean = np.nanmean(out) if np.isfinite(np.nanmean(out)) else 0.0
    for sensor in range(sensors):
        column = out[:, sensor]
        finite = np.flatnonzero(np.isfinite(column))
        if len(finite) == 0:
            out[:, sensor] = global_mean
            continue
        # Carry forward.
        last = column[finite[0]]
        for t in range(steps):
            if np.isfinite(column[t]):
                last = column[t]
            else:
                column[t] = last
        # Leading gap uses the first observation.
        column[: finite[0]] = out[finite[0], sensor]
    return out


def impute_linear(values: np.ndarray) -> np.ndarray:
    """Linear interpolation along time per sensor (edges extended flat)."""
    values = np.asarray(values, dtype=float)
    out = values.copy()
    steps, sensors = out.shape
    index = np.arange(steps)
    global_mean = np.nanmean(out) if np.isfinite(np.nanmean(out)) else 0.0
    for sensor in range(sensors):
        column = out[:, sensor]
        finite = np.isfinite(column)
        if not finite.any():
            out[:, sensor] = global_mean
            continue
        out[:, sensor] = np.interp(index, index[finite], column[finite])
    return out


class NonFiniteObservationsError(ValueError):
    """An observed sensor's readings hold NaN or an infinity.

    A model reads every observed reading it trains on, so a single one
    would make the loss, every weight and every forecast NaN without an
    error.  Unobserved sensors may carry no data: no model reads them.
    """


def check_finite_observations(
    values: np.ndarray, observed: np.ndarray, where: str = "training history"
) -> None:
    """Raise :class:`NonFiniteObservationsError` if ``values`` (steps by
    the ``observed`` sensors, in that order) holds a non-finite reading;
    the message names the count, the ``where`` and the first sensor."""
    bad = ~np.isfinite(values)
    if bad.any():
        sensors = np.asarray(observed)[bad.any(axis=0)]
        raise NonFiniteObservationsError(
            f"{int(bad.sum())} non-finite readings in the {where} of "
            f"{len(sensors)} observed sensors (first: sensor {int(sensors[0])}); "
            "impute them (see repro.data.missing) or leave those sensors unobserved"
        )


class FiniteInputCheck:
    """Refuses a window start a model cannot forecast from observed readings.

    Built once at fit from ``values`` (steps by sensors): prefix counts
    of the steps with a non-finite ``observed`` reading make
    :meth:`check` O(1) per start.
    """

    def __init__(self, values: np.ndarray, observed: np.ndarray, spec: WindowSpec) -> None:
        self.values, self.observed, self.spec = values, observed, spec
        bad = ~np.isfinite(values[:, observed]).all(axis=1)
        self.prefix = np.concatenate(([0], np.cumsum(bad)))

    def check(self, starts) -> None:
        """Raise :class:`~repro.data.windows.WindowStartError` for a start
        whose input window leaves the data, then
        :class:`NonFiniteObservationsError` for the first one whose input
        window ``[s, s + T)`` holds a non-finite observed reading."""
        length = self.spec.input_length
        check_window_starts(starts, len(self.values), self.spec)
        starts = np.asarray(starts, dtype=int)
        bad = self.prefix[starts + length] != self.prefix[starts]
        if bad.any():
            start = int(starts[np.argmax(bad)])
            window = self.values[start : start + length][:, self.observed]
            check_finite_observations(window, self.observed, f"input window at start {start}")
