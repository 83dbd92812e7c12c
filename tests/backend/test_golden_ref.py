"""``numpy_ref`` bit-identity against the pre-backend-refactor substrate.

The hashes and the ``golden_stsm_prerefactor.npz`` array below were
captured from the repository immediately *before* the array-backend seam
was introduced (commit "Extract a shared training engine ..." era code,
fixed seeds).  Any bitwise drift in a fixed-seed fit under the default
backend is a regression of the determinism contract — these tests fail
on the first differing bit, not on a tolerance.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import GEGANForecaster, IGNNKForecaster, INCREASEForecaster
from repro.core import STSMConfig, STSMForecaster
from repro.data import WindowSpec, space_split, temporal_split
from repro.data.synthetic import make_pems_bay

GOLDEN_NPZ = Path(__file__).parent / "golden_stsm_prerefactor.npz"

# sha256 over the raw float64 bytes, captured pre-refactor.
STSM_STATE_SHA256 = "8933e4a0eac3d24482b59515809fa4dc0dc0c2efa95a7f7d34882e0b8ddd7c97"
STSM_PRED_SHA256 = "7be1dce90d3ca1f6d2a5c1b7dfe863dce5952ec3cf58d1f67a9b799f753e9b53"
IGNNK_PRED_SHA256 = "eab4cd74ae5d74ba36b89b78e3f3f18e46f9a4c39257ce433c1f2e8e893ef976"
INCREASE_PRED_SHA256 = "1863580bf5e2f67f07b421c8a098db409122c99189ce723870f76204e92a828a"
# Captured later than the three above, while each model still sliced its
# windows one by one.
GEGAN_PRED_SHA256 = "e0638077f2de651d91aa0a72a38b76a6e603ebbbdcd2443888c22355a8a19214"


def _sha(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


@pytest.fixture(scope="module")
def golden_setup():
    dataset = make_pems_bay(num_sensors=24, num_days=3, seed=7)
    split = space_split(dataset.coords, "horizontal")
    spec = WindowSpec(input_length=8, horizon=8)
    train_ix, _ = temporal_split(dataset.num_steps)
    starts = np.arange(dataset.num_steps - spec.total - 8, dataset.num_steps - spec.total)
    return dataset, split, spec, train_ix, starts


def test_stsm_fixed_seed_fit_bit_identical_to_prerefactor(golden_setup):
    dataset, split, spec, train_ix, starts = golden_setup
    config = STSMConfig(epochs=3, hidden_dim=16, num_blocks=1, top_k=8, seed=0)
    model = STSMForecaster(config=config)
    model.fit(dataset, split, spec, train_ix)
    predictions = model.predict(starts)

    state = model.network.state_dict()
    digest = hashlib.sha256()
    for name in sorted(state):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(state[name]).tobytes())
    assert digest.hexdigest() == STSM_STATE_SHA256, "trained weights drifted bitwise"
    assert _sha(predictions) == STSM_PRED_SHA256, "predictions drifted bitwise"

    golden = np.load(GOLDEN_NPZ)["predictions"]
    np.testing.assert_array_equal(predictions, golden)


@pytest.mark.parametrize(
    "cls, expected",
    [
        (IGNNKForecaster, IGNNK_PRED_SHA256),
        (INCREASEForecaster, INCREASE_PRED_SHA256),
        (GEGANForecaster, GEGAN_PRED_SHA256),
    ],
    ids=["ignnk", "increase", "gegan"],
)
def test_baseline_fixed_seed_fits_bit_identical_to_prerefactor(golden_setup, cls, expected):
    dataset, split, spec, train_ix, starts = golden_setup
    model = cls(iterations=20, hidden=8, seed=0)
    model.fit(dataset, split, spec, train_ix)
    predictions = model.predict(starts)
    assert _sha(predictions) == expected, f"{cls.__name__} fit drifted bitwise"
