"""Generated submit / swap / drain / overflow interleavings over one runtime.

Two invariants of the blue/green swap, read from telemetry alone:

* after every drain, ``stats()["totals"]`` has ``submitted == completed
  + failed`` — every accepted request was answered, across any number
  of swaps;
* no ``*_total`` sample on the runtime's ``/metrics`` rendering ever
  decreases between steps.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.interfaces import FitReport, Forecaster
from repro.obs.metrics import render_prometheus
from repro.serving import QueueFull, ServingRuntime

MODEL = "m"
#: Small enough that a burst of ``10 * MAX_QUEUE`` starts never fits.
MAX_QUEUE = 2


class _Scaled(Forecaster):
    name = "scaled"

    def __init__(self, scale: float) -> None:
        self.scale = scale

    def fit(self, dataset, split, spec, train_steps) -> FitReport:
        return FitReport()

    def predict(self, window_starts: np.ndarray) -> np.ndarray:
        starts = np.asarray(window_starts, dtype=float)
        return starts[:, None, None] * self.scale + np.zeros((1, 2, 3))


def _totals(runtime: ServingRuntime) -> dict[str, float]:
    samples = {}
    for line in render_prometheus(runtime.metrics).splitlines():
        if line and not line.startswith("#"):
            series, value = line.rsplit(" ", 1)
            if series.split("{")[0].endswith("_total"):
                samples[series] = float(value)
    return samples


class SwapDrainMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.runtime = ServingRuntime(
            max_queue=MAX_QUEUE, admission="reject"
        )
        self.scale = 1.0
        self.runtime.register(MODEL, _Scaled(self.scale))
        self.pending = []
        self.rejected = 0
        self.last = _totals(self.runtime)

    def _submit(self, start: int) -> bool:
        try:
            self.pending.append(self.runtime.submit(MODEL, start))
        except QueueFull:
            self.rejected += 1
            return False
        return True

    @rule(start=st.integers(min_value=0, max_value=500))
    def submit(self, start):
        self._submit(start)

    @rule()
    def swap(self):
        self.scale += 1.0
        self.runtime.register(MODEL, _Scaled(self.scale), replace=True)

    @rule()
    def overflow(self):
        # One call larger than the queue bound is refused as a whole,
        # every one of its starts counted as rejected.
        starts = [1000 + start for start in range(10 * MAX_QUEUE)]
        with pytest.raises(QueueFull):
            self.runtime.submit_many(MODEL, starts)
        self.rejected += len(starts)

    @rule()
    def drain(self):
        assert self.runtime.drain(timeout=30.0)
        for handle in self.pending:
            assert handle.done() and handle.result().shape == (2, 3)
        self.pending.clear()
        totals = self.runtime.stats()["totals"]
        assert totals["submitted"] == totals["completed"] + totals["failed"]
        assert totals["failed"] == 0
        assert totals["rejected"] == self.rejected

    @invariant()
    def totals_never_decrease(self):
        now = _totals(self.runtime)
        for series, value in self.last.items():
            assert now.get(series, 0.0) >= value, series
        self.last = now

    def teardown(self):
        self.runtime.shutdown()


SwapDrainMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=12, deadline=None
)
TestSwapDrainInterleavings = SwapDrainMachine.TestCase
