"""Oracle reference: a forecaster that *sees* the unobserved region's history.

Not a baseline from the paper — a diagnostic upper reference.  It fits the
same STSM network but with the test region's historical data available
(classic forecasting with complete data), so the gap between the oracle
and real STSM quantifies how much accuracy the *missing-region* condition
itself costs, separating it from plain forecasting difficulty.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.config import STSMConfig
from ..core.model import STSMForecaster
from ..data.splits import SpaceSplit
from ..data.windows import check_window_starts
from ..interfaces import FitReport, Forecaster

__all__ = ["OracleForecaster"]


class OracleForecaster(Forecaster):
    """STSM trained with the unobserved region's history revealed.

    Implementation: rewrites the split so every location is observed
    (train = everything except a token validation strip), fits a standard
    STSM, and at prediction time reads the (now-observed) test columns.
    """

    def __init__(self, config: STSMConfig | None = None) -> None:
        self.config = (config if config is not None else STSMConfig()).replace(
            selective_masking=False, contrastive=False
        )
        self.name = "Oracle-STSM"
        self._inner: STSMForecaster | None = None

    def fit(self, dataset, split, spec, train_steps) -> FitReport:
        began = time.perf_counter()
        self._target_index = split.unobserved
        n = dataset.num_locations
        everything = np.arange(n)
        num_val = max(1, n // 10)
        oracle_split = SpaceSplit(
            train=everything[num_val:],
            validation=everything[:num_val],
            test=np.array([], dtype=int),
            name="oracle",
        )
        # An empty test set breaks downstream index maths; use a 1-element
        # sentinel region instead (the farthest-east location), which stays
        # out of the loss focus but keeps the pipeline uniform.
        sentinel = np.array([int(np.argmax(dataset.coords[:, 0]))])
        remaining = np.setdiff1d(everything, sentinel)
        oracle_split = SpaceSplit(
            train=remaining[num_val:],
            validation=remaining[:num_val],
            test=sentinel,
            name="oracle",
        )
        self._inner = STSMForecaster(self.config, name=self.name)
        report = self._inner.fit(dataset, oracle_split, spec, train_steps)
        report.train_seconds = time.perf_counter() - began
        return report

    def predict(self, window_starts: np.ndarray) -> np.ndarray:
        if self._inner is None:
            raise RuntimeError("predict() called before fit()")
        inner = self._inner
        spec = inner.spec
        check_window_starts(window_starts, inner.dataset.num_steps, spec)
        cfg = inner.config
        if len(window_starts) == 0:
            return np.empty((0, spec.horizon, len(self._target_index)))
        steps_per_day = inner.dataset.steps_per_day
        from ..autograd import Tensor, no_grad
        from ..temporal import normalised_time_encoding

        inner.network.eval()
        outputs = []
        with no_grad():
            for begin in range(0, len(window_starts), cfg.batch_size):
                batch = np.asarray(window_starts)[begin : begin + cfg.batch_size]
                xs, tes = [], []
                for s in batch:
                    xs.append(inner._filled_full[int(s) : int(s) + spec.input_length])
                    ids = (int(s) + np.arange(spec.input_length)) % steps_per_day
                    tes.append(normalised_time_encoding(ids, steps_per_day))
                x = Tensor(np.stack(xs, axis=0)[..., None])
                te = Tensor(np.stack(tes, axis=0)[..., None])
                predictions, _z = inner.network(x, te, inner._a_s_test_t, inner._a_dtw_test_t)
                scaled = predictions.numpy()[..., 0][:, :, self._target_index]
                outputs.append(inner.scaler.inverse_transform(scaled))
        return np.concatenate(outputs, axis=0)
