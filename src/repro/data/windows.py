"""Sliding-window sampling for sequence-to-sequence forecasting.

A window pairs ``T`` input steps with the following ``T'`` target steps
(paper Eq. 1).  The samplers yield start indices, and every model turns
a batch of starts into windows with one :func:`gather_windows` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = ["WindowSpec", "WindowStartError", "check_window_starts", "gather_windows",
           "window_starts", "iterate_batches"]


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


def gather_windows(values: np.ndarray, starts, length: int) -> np.ndarray:
    """``np.stack([values[s : s + length] for s in starts])`` from one gather.

    The result has the stack's shape ``(len(starts), length, ...)``, bytes
    and strides.  ``np.stack`` lays each window out in the memory order of
    ``values``, so a C-ordered ``values`` gives a C-ordered result; any
    other order is copied into the same layout, because a network's float
    results can depend on the layout of its input.  Starts may repeat and
    come in any order, but each window must lie inside ``values``.
    """
    values = np.asarray(values)
    starts = np.asarray(starts, dtype=int).reshape(-1)
    outside = (starts < 0) | (starts + length > len(values))
    if outside.any():
        raise IndexError(
            f"the {length}-step window from start {starts[np.argmax(outside)]} "
            f"runs outside {len(values)} steps"
        )
    # A one-window stack shows the layout: its axes sorted slowest first,
    # a size-1 axis after the axis it shares a stride with.
    strides = np.stack([values[:length]]).strides
    shape = (len(starts), length, *values.shape[1:])
    order = sorted(range(len(shape)), key=lambda a: (a > 0, -strides[a], shape[a] == 1))
    out = np.empty([shape[a] for a in order], values.dtype).transpose(np.argsort(order))
    # The bounds are checked above, so "clip" never clips; it spares
    # ``out`` the buffered copy "raise" makes.
    return np.take(values, starts[:, None] + np.arange(length), axis=0, out=out, mode="clip")


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
