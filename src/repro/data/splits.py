"""Space-based and time-based dataset splitting (paper §5.1.1, §5.2.4).

The paper splits each dataset's *locations* 4:1:5 into train / validation /
test sets, where each set is spatially contiguous: the sensors are divided
horizontally or vertically by geo-coordinate.  Four split variants are
averaged (horizontal and vertical, each with the two orientations).  The
ring split (§5.2.4, Fig. 11) puts the training region in the centre, the
validation ring around it, and tests on the outer ring.

Time is split 70% (train) / 30% (test).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpaceSplit",
    "space_split",
    "scattered_split",
    "progressive_splits",
    "temporal_split",
]

_DEFAULT_FRACTIONS = (0.4, 0.1, 0.5)


@dataclass(frozen=True)
class SpaceSplit:
    """Location index sets for one spatial partitioning.

    ``train`` and ``validation`` are the observed locations (sensors with
    data); ``test`` are the unobserved locations the model must forecast.
    """

    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray
    name: str = ""

    @property
    def observed(self) -> np.ndarray:
        """All locations with data (train + validation), sorted."""
        return np.sort(np.concatenate([self.train, self.validation]))

    @property
    def unobserved(self) -> np.ndarray:
        """Locations without any observations (the region of interest)."""
        return np.sort(self.test)

    def validate(self, num_locations: int) -> None:
        """Check the split is a partition of ``range(num_locations)``."""
        joined = np.concatenate([self.train, self.validation, self.test])
        if len(joined) != num_locations or len(np.unique(joined)) != num_locations:
            raise ValueError(f"split {self.name!r} is not a partition of {num_locations} locations")


def _partition(order: np.ndarray, fractions: tuple[float, float, float]) -> tuple[np.ndarray, ...]:
    n = len(order)
    n_train = int(round(fractions[0] * n))
    n_val = int(round(fractions[1] * n))
    n_train = max(1, min(n_train, n - 2))
    n_val = max(1, min(n_val, n - n_train - 1))
    return (
        np.sort(order[:n_train]),
        np.sort(order[n_train : n_train + n_val]),
        np.sort(order[n_train + n_val :]),
    )


def space_split(
    coords: np.ndarray,
    kind: str,
    fractions: tuple[float, float, float] = _DEFAULT_FRACTIONS,
) -> SpaceSplit:
    """Split locations spatially.

    Parameters
    ----------
    coords:
        ``(N, 2)`` coordinates.
    kind:
        One of ``"horizontal"`` (sweep south→north), ``"horizontal_flip"``
        (north→south), ``"vertical"`` (west→east), ``"vertical_flip"``
        (east→west) or ``"ring"`` (centre outward by distance from the
        centroid).
    fractions:
        (train, validation, test) location fractions; default 4:1:5.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise ValueError(f"coords must be (N, 2), got {coords.shape}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {fractions}")
    order = _sweep_order(coords, kind)
    train, validation, test = _partition(order, fractions)
    return SpaceSplit(train=train, validation=validation, test=test, name=kind)


def scattered_split(coords: np.ndarray, rng: np.random.Generator | None = None) -> SpaceSplit:
    """Split with *scattered* unobserved locations (classic kriging, Fig. 1b).

    Unlike :func:`space_split`, the test locations are drawn uniformly at
    random, so every unobserved location tends to have observed neighbours.
    This is the setting IGNNK/INCREASE were designed for; the paper's
    problem (Fig. 1c) replaces it with one contiguous unobserved region.
    Used by the ``ext_missingness`` experiment to reproduce the paper's
    motivating claim that kriging models degrade under contiguity.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise ValueError(f"coords must be (N, 2), got {coords.shape}")
    rng = rng if rng is not None else np.random.default_rng(0)
    order = rng.permutation(len(coords))
    train, validation, test = _partition(order, _DEFAULT_FRACTIONS)
    return SpaceSplit(train=train, validation=validation, test=test, name="scattered")


def _sweep_order(coords: np.ndarray, kind: str) -> np.ndarray:
    """Location order along a sweep direction (shared with space_split)."""
    if kind == "horizontal":
        return np.argsort(coords[:, 1], kind="stable")
    if kind == "horizontal_flip":
        return np.argsort(-coords[:, 1], kind="stable")
    if kind == "vertical":
        return np.argsort(coords[:, 0], kind="stable")
    if kind == "vertical_flip":
        return np.argsort(-coords[:, 0], kind="stable")
    if kind == "ring":
        centre = coords.mean(axis=0)
        return np.argsort(np.linalg.norm(coords - centre, axis=1), kind="stable")
    raise ValueError(f"unknown split kind {kind!r}")


def progressive_splits(
    coords: np.ndarray,
    kind: str = "horizontal",
    base_fraction: float = 0.5,
    core_fraction: float = 0.25,
    stages: tuple[float, ...] = (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0),
) -> tuple[list[SpaceSplit], np.ndarray]:
    """Splits simulating progressive sensor deployment (paper §1, case 1).

    The sweep direction divides the locations into three zones:

    * a **base** region (first ``base_fraction``) that always has sensors;
    * a **deployment corridor** (middle) whose sensors come online stage by
      stage, in sweep order — "deployed progressively from one region to
      another", the paper's Hong Kong scenario;
    * a permanent **core** (last ``core_fraction``) that never gets sensors.

    One :class:`SpaceSplit` is returned per stage fraction: at stage ``f``
    the base plus the first ``f`` of the corridor are observed (split
    4:1 into train and validation along the sweep), and everything else
    is unobserved.  The core indices are returned separately so the
    caller can score every stage on the *same* target set — errors stay
    comparable as deployment advances.

    Returns
    -------
    ``(splits, core)`` — the per-stage splits and the sorted core indices.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise ValueError(f"coords must be (N, 2), got {coords.shape}")
    if not 0.0 < base_fraction < 1.0 or not 0.0 < core_fraction < 1.0:
        raise ValueError("base_fraction and core_fraction must be in (0, 1)")
    if base_fraction + core_fraction >= 1.0:
        raise ValueError(
            f"base_fraction + core_fraction must leave a corridor, got "
            f"{base_fraction} + {core_fraction}"
        )
    if any(not 0.0 <= stage <= 1.0 for stage in stages):
        raise ValueError(f"stage fractions must be in [0, 1], got {stages}")
    order = _sweep_order(coords, kind)
    n = len(order)
    n_base = max(2, int(round(base_fraction * n)))
    n_core = max(1, int(round(core_fraction * n)))
    n_core = min(n_core, n - n_base - 1)
    corridor = order[n_base : n - n_core]
    core = np.sort(order[n - n_core :])

    splits = []
    for stage in stages:
        deployed = corridor[: int(round(stage * len(corridor)))]
        observed_order = np.concatenate([order[:n_base], deployed])
        n_val = max(1, int(round(0.2 * len(observed_order))))
        train = np.sort(observed_order[:-n_val])
        validation = np.sort(observed_order[-n_val:])
        test = np.sort(np.concatenate([corridor[len(deployed):], core]))
        splits.append(
            SpaceSplit(
                train=train,
                validation=validation,
                test=test,
                name=f"{kind}-deploy-{stage:.2f}",
            )
        )
    return splits, core


def temporal_split(num_steps: int, train_fraction: float = 0.7) -> tuple[np.ndarray, np.ndarray]:
    """First ``train_fraction`` of time for training, the rest for testing."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    cut = int(round(num_steps * train_fraction))
    cut = max(1, min(cut, num_steps - 1))
    return np.arange(cut), np.arange(cut, num_steps)
