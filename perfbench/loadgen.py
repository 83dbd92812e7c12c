"""Traffic generators and the percentile rule.

The serving package ships a ``LoadGenerator``, but it times paced
requests from the moment they are sent, so a stall that delays later
sends never shows in their latency.  The open-loop generator here times
every request from the moment it was **due** on a seeded Poisson
schedule, and reports separately how late each send left (generator
lateness).  The closed-loop generator sends a connection's next request as
soon as the previous one returns.

Every request is one :class:`Sample`; any exception (an error frame,
a 4xx or 5xx status, a timeout, a dropped connection) marks it failed,
and a failed request misses every latency limit.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Sample",
    "call",
    "closed_loop",
    "open_loop",
    "poisson_schedule",
    "quantile",
    "tail_percentile",
]


@dataclass
class Sample:
    """One request: due, send and completion times on the monotonic clock."""

    item: object
    due: float
    sent: float
    done: float
    ok: bool
    result: object = None
    traced: bool = False

    @property
    def latency(self) -> float:
        """Seconds from due time to completion (failed: infinite)."""
        return self.done - self.due if self.ok else math.inf

    @property
    def lateness(self) -> float:
        """Seconds the send left after its due time."""
        return self.sent - self.due


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    return float(np.quantile(np.asarray(values, dtype=float), q))


def tail_percentile(count: int, ladder=(99.9, 99.0, 95.0, 80.0, 50.0)) -> float | None:
    """Highest percentile on ``ladder`` with at least ten samples beyond it.

    ``None`` when even the median has fewer than ten samples above it.
    The rungs are spaced so that each workload's usual request count
    (``serve_hot`` ~3000, ``serve_cold`` ~100) stays on one rung even
    when the machine runs a third faster or slower.
    """
    for pct in ladder:
        if count * (1.0 - pct / 100.0) >= 10.0 - 1e-9:
            return pct
    return None


def poisson_schedule(rng: np.random.Generator, rate: float, seconds: float) -> np.ndarray:
    """Due offsets (seconds from start) of a Poisson process at ``rate``/s."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 16)
    offsets = np.cumsum(gaps)
    while offsets[-1] < seconds:  # vanishingly rare: extend the draw
        more = np.cumsum(rng.exponential(1.0 / rate, size=len(gaps))) + offsets[-1]
        offsets = np.concatenate([offsets, more])
    return offsets[offsets < seconds]


def call(send, item, due: float, sent: float) -> Sample:
    try:
        result = send(item)
        ok = True
    except Exception as error:  # noqa: BLE001 — any failure is a failed request
        result, ok = error, False
    return Sample(item, due, sent, time.monotonic(), ok, result)


def open_loop(senders, offsets, items, start_at: float, on_sample=None) -> list[Sample]:
    """Send a Poisson-scheduled stream over a pool of connections.

    ``start_at`` is the monotonic time of offset 0.  One thread per
    sender takes the next request off the shared schedule, sleeps until
    it is due and sends it on its own connection.  A request falls
    behind its due time only when every connection is busy; the wait
    counts in both its latency and its lateness.  ``on_sample`` runs on
    the sender's thread after each completion (outside the timed
    interval).
    """
    results: list[list[Sample]] = [[] for _ in senders]
    cursor = iter(range(len(offsets)))
    lock = threading.Lock()

    def drive(index: int) -> None:
        send = senders[index]
        out = results[index]
        while True:
            with lock:
                position = next(cursor, None)
            if position is None:
                return
            due = start_at + float(offsets[position])
            pause = due - time.monotonic()
            if pause > 0:
                time.sleep(pause)
            sample = call(send, items[position], due, time.monotonic())
            out.append(sample)
            if on_sample is not None:
                on_sample(sample)

    _run_threads(drive, len(senders))
    return [sample for per_thread in results for sample in per_thread]


def closed_loop(senders, next_item, until: float, on_sample=None) -> list[Sample]:
    """One thread per sender; each sends again as soon as a reply returns.

    ``next_item(index)`` draws the next request for sender ``index``
    (called on that sender's thread).  Senders stop issuing once the
    monotonic clock passes ``until``.
    """
    results: list[list[Sample]] = [[] for _ in senders]

    def drive(index: int) -> None:
        send = senders[index]
        out = results[index]
        while time.monotonic() < until:
            item = next_item(index)
            now = time.monotonic()
            sample = call(send, item, now, now)
            out.append(sample)
            if on_sample is not None:
                on_sample(sample)

    _run_threads(drive, len(senders))
    return [sample for per_thread in results for sample in per_thread]


def _run_threads(target, count: int) -> None:
    errors: list[BaseException] = []

    def guarded(index: int) -> None:
        try:
            target(index)
        except BaseException as error:  # noqa: BLE001 — re-raised below
            errors.append(error)

    threads = [
        threading.Thread(target=guarded, args=(i,), name=f"perfbench-load-{i}")
        for i in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
