"""Time-of-day features (paper §3.4.1, temporal attention).

Each observation interval in a day gets an interval id in ``[0, T_d - 1]``;
an input window of length T carries the ids of its T intervals, which the
model embeds and fuses multiplicatively with the observations (Eq. 4).
"""

from __future__ import annotations

import numpy as np

__all__ = ["normalised_time_encoding"]


def normalised_time_encoding(ids: np.ndarray, steps_per_day: int) -> np.ndarray:
    """Scale interval ids to [0, 1] for use as continuous model input."""
    if steps_per_day <= 1:
        return np.zeros_like(np.asarray(ids, dtype=float))
    return np.asarray(ids, dtype=float) / float(steps_per_day - 1)
