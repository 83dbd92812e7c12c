"""An untaped forward pays nothing for the tape.

``maximum`` keeps three bool masks for its adjoint and ``__getitem__``
the input's layout; both are computed only when the result is taped
(grad mode on and an operand needing a gradient), so ``predict`` and
serving, which run under ``no_grad()``, issue the same backend ops as a
forward that never saved anything.  Backend calls are counted through
:class:`~repro.obs.CountingBackend`.
"""

from __future__ import annotations

import contextlib
from collections import Counter

import numpy as np
import pytest

from repro.autograd import Tensor, maximum, no_grad
from repro.backend import use_backend
from repro.backend.numpy_ref import NumpyRefBackend
from repro.core import STSMConfig, STSMForecaster
from repro.data import WindowSpec, space_split, temporal_split
from repro.data.synthetic import make_pems_bay
from repro.obs import global_registry, instrument_backend


def _counted_ops(run) -> Counter:
    """Backend op calls ``run()`` makes, by op name."""
    counted = instrument_backend(NumpyRefBackend())
    counter = global_registry().counter("repro_backend_ops_total", labelnames=("backend", "op"))

    def snapshot():
        return Counter({
            labels[1]: int(child.value)
            for labels, child in counter.children()
            if labels[0] == counted.name
        })

    before = snapshot()
    with use_backend(counted):
        run()
    after = snapshot()
    after.subtract(before)
    return +after


def _operands(requires_grad: bool):
    rng = np.random.default_rng(0)
    return (
        Tensor(rng.normal(size=(3, 4)), requires_grad=requires_grad),
        Tensor(rng.normal(size=(4,)), requires_grad=requires_grad),
    )


@pytest.mark.parametrize(
    "grad_mode, requires_grad", [(False, False), (False, True), (True, False)]
)
def test_untaped_maximum_computes_no_masks(grad_mode, requires_grad):
    a, b = _operands(requires_grad)
    with contextlib.nullcontext() if grad_mode else no_grad():
        ops = _counted_ops(lambda: maximum(a, b))
    assert ops["maximum"] == 1
    assert ops["greater"] == ops["equal"] == 0


def test_taped_maximum_computes_its_three_masks():
    ops = _counted_ops(lambda: maximum(*_operands(True)))
    assert (ops["greater"], ops["equal"]) == (2, 1)


def test_getitem_under_no_grad_reads_no_layout():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    with no_grad():
        ops = _counted_ops(lambda: x[1:, ::2])
    assert ops["layout_of"] == 0
    assert _counted_ops(lambda: x[1:, ::2])["layout_of"] == 1


#: Backend ops of the predict below, as counted when ``maximum`` kept its
#: operands and indexing its input: the untaped forward issues these and
#: no more.
PREDICT_OPS = {
    "add": 20, "conv1d_apply": 4, "copy": 2, "getitem": 2, "matmul": 38, "maximum": 6,
    "multiply": 10, "relu": 8, "reshape": 6, "sigmoid": 8, "sum": 2, "to_float_array": 112,
    "to_numpy": 2, "transpose": 8,
}


def test_stsm_predict_issues_the_untaped_forward_ops():
    dataset = make_pems_bay(num_sensors=16, num_days=2, seed=42)
    split = space_split(dataset.coords, "horizontal")
    spec = WindowSpec(input_length=6, horizon=6)
    train_ix, _ = temporal_split(dataset.num_steps)
    model = STSMForecaster(
        STSMConfig(
            hidden_dim=8, num_blocks=1, tcn_levels=2, gcn_depth=2, epochs=1,
            patience=1, batch_size=8, window_stride=8, top_k=4,
        )
    )
    model.fit(dataset, split, spec, train_ix)
    starts = np.arange(0, 40, 4)
    ops = _counted_ops(lambda: model.predict(starts))
    assert dict(ops) == PREDICT_OPS
