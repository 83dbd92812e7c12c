"""Device/dtype plumbing: config round-trips, cross-backend restore,
serving-bundle backend overrides.

The numpy-only legs run everywhere, with the ``twin_backend`` fixture's
renamed ``numpy_ref`` as the second backend; the torch legs skip when
torch is absent.  The contract under test: ``STSMConfig.device/dtype``
serialise and validate, checkpoints are backend-neutral (host numpy),
and a model saved under one backend restores and predicts under another.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.backend import backend_available, use_backend
from repro.core import STSMConfig, STSMForecaster, load_forecaster, save_forecaster
from repro.data import WindowSpec, space_split, temporal_split
from repro.data.synthetic import make_pems_bay

TORCH_MISSING = not backend_available("torch")
needs_torch = pytest.mark.skipif(TORCH_MISSING, reason="torch not installed")


# ----------------------------------------------------------------------
# Config round-trip and validation
# ----------------------------------------------------------------------
def test_config_device_dtype_roundtrip(twin_backend):
    config = STSMConfig(backend=twin_backend, device="cpu", dtype="float64")
    config.validate()
    fields = dataclasses.asdict(config)
    assert fields["device"] == "cpu"
    assert fields["dtype"] == "float64"
    restored = STSMConfig(**fields)
    assert restored == config


def test_config_defaults_leave_device_dtype_unset():
    config = STSMConfig()
    config.validate()
    assert config.device is None and config.dtype is None


def test_config_rejects_bad_dtype_and_device():
    with pytest.raises(ValueError, match="dtype"):
        STSMConfig(dtype="float16").validate()
    with pytest.raises(ValueError, match="device"):
        STSMConfig(device=3).validate()


def test_config_numpy_backend_rejects_cuda_at_fit_resolution():
    # validate() accepts any device string (the backend owns device
    # semantics); resolution at fit time is where a numpy backend
    # refuses a non-cpu device.
    config = STSMConfig(backend="numpy_ref", device="cuda")
    config.validate()
    model = STSMForecaster(config=config)
    with pytest.raises(ValueError, match="host cpu only"):
        model._resolved_backend()


# ----------------------------------------------------------------------
# Cross-backend checkpoint restore (Trainer / EarlyStopping path)
# ----------------------------------------------------------------------
def _fit_regression(backend: str, checkpoint_dir):
    from repro.autograd import Tensor
    from repro.engine import EarlyStopping, Trainer, TrainingProgram
    from repro.nn import Linear, init, mse_loss
    from repro.optim import SGD

    class Program(TrainingProgram):
        def __init__(self) -> None:
            rng = np.random.default_rng(42)
            self.inputs = rng.normal(size=(24, 4))
            self.targets = self.inputs @ rng.normal(size=(4, 2))
            self.network = Linear(4, 2, rng=init.default_rng(0))
            self.optimiser = SGD(self.network.parameters(), lr=0.1)
            self.epoch = 0

        def batches(self, epoch, rng):
            rows = rng.choice(len(self.inputs), size=8, replace=False)
            yield Tensor(self.inputs[rows]), Tensor(self.targets[rows])

        def compute_loss(self, batch, rng):
            x, y = batch
            return mse_loss(self.network(x), y)

        def validation_score(self, epoch):
            self.epoch += 1
            return float(3 - self.epoch) if self.epoch < 3 else 4.0

    with use_backend(backend):
        program = Program()
        early = EarlyStopping(patience=5, checkpoint_dir=checkpoint_dir)
        Trainer(
            program, max_epochs=4, rng=np.random.default_rng(7), early_stopping=early
        ).fit()
        return program.network.state_dict()


def _restore_regression(backend: str, checkpoint_dir):
    from repro.engine import Trainer, TrainingProgram
    from repro.nn import Linear, init
    from repro.optim import SGD

    with use_backend(backend):

        class Program(TrainingProgram):
            def __init__(self) -> None:
                self.network = Linear(4, 2, rng=init.default_rng(9))
                self.optimiser = SGD(self.network.parameters(), lr=0.1)

        program = Program()
        trainer = Trainer(program, max_epochs=0)
        assert trainer.restore(checkpoint_dir)
        return program.network.state_dict()


@pytest.mark.parametrize(
    "fit_backend, restore_backend",
    [
        ("numpy_ref_twin", "numpy_ref"),
        ("numpy_ref", "numpy_ref_twin"),
        pytest.param("torch", "numpy_ref", marks=needs_torch),
        pytest.param("numpy_ref", "torch", marks=needs_torch),
    ],
)
def test_checkpoint_restores_across_backends(
    tmp_path, twin_backend, fit_backend, restore_backend
):
    saved = _fit_regression(fit_backend, tmp_path / "ckpt")
    assert all(isinstance(v, np.ndarray) for v in saved.values())
    restored = _restore_regression(restore_backend, tmp_path / "ckpt")
    assert set(saved) == set(restored)
    for name in saved:
        np.testing.assert_allclose(restored[name], saved[name], rtol=1e-12, atol=0)


# ----------------------------------------------------------------------
# Forecaster save/load with backend overrides (serving path)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fitted_context():
    dataset = make_pems_bay(num_sensors=12, num_days=1, seed=5)
    split = space_split(dataset.coords, "horizontal")
    spec = WindowSpec(input_length=6, horizon=4)
    train_ix, _ = temporal_split(dataset.num_steps)
    config = STSMConfig(epochs=1, hidden_dim=8, num_blocks=1, top_k=4, seed=0)
    model = STSMForecaster(config=config)
    model.fit(dataset, split, spec, train_ix)
    starts = np.arange(dataset.num_steps - spec.total - 3, dataset.num_steps - spec.total)
    return model, dataset, split, starts


def test_load_forecaster_backend_override(tmp_path, twin_backend, fitted_context):
    model, dataset, split, starts = fitted_context
    path = save_forecaster(model, tmp_path / "model.npz")
    baseline = model.predict(starts)

    loaded = load_forecaster(path, dataset, split, backend=twin_backend)
    assert loaded.config.backend == twin_backend
    np.testing.assert_allclose(loaded.predict(starts), baseline, rtol=1e-6, atol=1e-8)

    # The saved checkpoint itself is untouched by the override.
    again = load_forecaster(path, dataset, split)
    assert again.config.backend is None


def test_load_forecaster_rejects_bad_override(tmp_path, fitted_context):
    model, dataset, split, _starts = fitted_context
    path = save_forecaster(model, tmp_path / "model.npz")
    with pytest.raises(ValueError, match="unknown backend"):
        load_forecaster(path, dataset, split, backend="not_a_backend")
    with pytest.raises(ValueError, match="dtype"):
        load_forecaster(path, dataset, split, dtype="float16")


def test_retired_numpy_fused_name_is_unknown_but_loads_with_override(
    tmp_path, fitted_context
):
    from repro.backend import UnknownBackendError, resolve_backend

    with pytest.raises(UnknownBackendError, match="numpy_ref"):
        resolve_backend("numpy_fused")
    # A checkpoint saved under the deleted backend restores through the
    # ordinary backend override.
    model, dataset, split, starts = fitted_context
    saved_config = model.config
    model.config = saved_config.replace(backend="numpy_fused")
    try:
        path = save_forecaster(model, tmp_path / "model.npz")
    finally:
        model.config = saved_config
    loaded = load_forecaster(path, dataset, split, backend="numpy_ref")
    np.testing.assert_allclose(
        loaded.predict(starts), model.predict(starts), rtol=1e-6, atol=1e-8
    )


@needs_torch
def test_load_forecaster_torch_override_predicts(tmp_path, fitted_context):
    model, dataset, split, starts = fitted_context
    path = save_forecaster(model, tmp_path / "model.npz")
    baseline = model.predict(starts)
    loaded = load_forecaster(
        path, dataset, split, backend="torch", device="cpu", dtype="float64"
    )
    np.testing.assert_allclose(loaded.predict(starts), baseline, rtol=1e-6, atol=1e-8)


def test_bundle_load_with_backend_override(tmp_path, twin_backend, fitted_context):
    from repro.serving.transport import BundleEntry, load_bundle, save_bundle

    model, _dataset, _split, starts = fitted_context
    recipe = {"name": "pems-bay", "num_sensors": 12, "num_days": 1, "seed": 5}
    save_bundle(
        tmp_path / "bundle",
        {"stsm/demo": BundleEntry(forecaster=model, dataset=recipe,
                                  warmup_starts=[int(starts[0])])},
    )
    baseline = model.predict(starts)
    models = load_bundle(tmp_path / "bundle", backend=twin_backend)
    forecaster, warmups = models["stsm/demo"]
    assert forecaster.config.backend == twin_backend
    assert warmups == [int(starts[0])]
    np.testing.assert_allclose(forecaster.predict(starts), baseline, rtol=1e-6, atol=1e-8)


def test_serve_config_carries_backend_fields():
    from repro.serving.transport import ServeConfig

    config = ServeConfig(checkpoint_dir="/tmp/x", backend="numpy_ref",
                         device="cpu", dtype="float64")
    fields = dataclasses.asdict(config)
    assert fields["backend"] == "numpy_ref"
    assert fields["device"] == "cpu"
    assert fields["dtype"] == "float64"
