"""Sliding-window sampling for sequence-to-sequence forecasting.

A window pairs ``T`` input steps with the following ``T'`` target steps
(paper Eq. 1).  The samplers yield start indices so models can slice both
values and time-of-day features consistently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = ["WindowSpec", "WindowStartError", "check_window_starts", "window_starts", "iterate_batches"]


@dataclass(frozen=True)
class WindowSpec:
    """Input/target window lengths (``T`` and ``T'`` of Eq. 1)."""

    input_length: int
    horizon: int

    def __post_init__(self) -> None:
        if self.input_length <= 0 or self.horizon <= 0:
            raise ValueError(f"window lengths must be positive, got {self}")

    @property
    def total(self) -> int:
        return self.input_length + self.horizon


class WindowStartError(ValueError):
    """A window start whose input window does not lie in the data."""


def check_window_starts(starts, num_steps: int, spec: WindowSpec) -> None:
    """Raise :class:`WindowStartError` unless every start's input window
    lies in the data.

    A start ``s`` can be forecast only when its input window ``[s, s + T)``
    lies inside ``[0, num_steps)``; the forecast itself may run past the
    last step.  The message names the first bad start.
    """
    starts = np.asarray(starts).reshape(-1)
    last = num_steps - spec.input_length
    bad = ~((starts >= 0) & (starts <= last)).astype(bool)  # NaN is out of range too
    if bad.any():
        raise WindowStartError(
            f"window start {starts[np.argmax(bad)]} is outside the valid range "
            f"[0, {last}] (input length {spec.input_length}, {num_steps} steps)"
        )


def window_starts(num_steps: int, spec: WindowSpec, stride: int = 1) -> np.ndarray:
    """All valid window start indices within ``num_steps`` observations."""
    if stride <= 0:
        raise ValueError("stride must be positive")
    last = num_steps - spec.total
    if last < 0:
        return np.array([], dtype=int)
    return np.arange(0, last + 1, stride)


def iterate_batches(
    starts: np.ndarray,
    batch_size: int,
    rng: np.random.Generator | None = None,
    drop_last: bool = False,
) -> Iterator[np.ndarray]:
    """Yield batches of window starts, shuffled when ``rng`` is given.

    ``drop_last`` discards a trailing partial batch (useful for contrastive
    training where a batch must contain enough negatives).
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    starts = np.asarray(starts, dtype=int)
    order = rng.permutation(len(starts)) if rng is not None else np.arange(len(starts))
    for begin in range(0, len(starts), batch_size):
        batch = starts[order[begin : begin + batch_size]]
        if drop_last and len(batch) < batch_size:
            return
        if len(batch):
            yield batch
