"""Backend-neutral checkpoints: cross-backend restore, and checkpoints
and serving bundles saved by older versions.

The ``twin_backend`` fixture's renamed ``numpy_ref`` is the second
backend.  The contract under test: checkpoints are backend-neutral (host
numpy), a model saved under one backend restores under another, and a
checkpoint saved with any ``backend`` config value, or with the retired
``device``/``dtype`` or learning-rate schedule config keys, loads with no
argument.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.backend import UnknownBackendError, set_backend, use_backend
from repro.core import STSMConfig, STSMForecaster, load_forecaster, save_forecaster
from repro.data import WindowSpec, space_split, temporal_split
from repro.data.synthetic import make_pems_bay


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
# Checkpoints and bundles written by older versions
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


def _add_config_keys(path, **keys) -> None:
    """Rewrite a saved checkpoint's header config with extra keys, the
    way older versions wrote ``dataclasses.asdict(config)``."""
    with np.load(path, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    header = json.loads(bytes(arrays["__header__"]).decode("utf-8"))
    header["config"].update(keys)
    arrays["__header__"] = np.frombuffer(json.dumps(header).encode("utf-8"), np.uint8)
    np.savez(path, **arrays)


def _save_demo_bundle(directory, model, starts) -> None:
    from repro.serving.transport import BundleEntry, save_bundle

    recipe = {"name": "pems-bay", "num_sensors": 12, "num_days": 1, "seed": 5}
    save_bundle(
        directory,
        {"stsm/demo": BundleEntry(forecaster=model, dataset=recipe,
                                  warmup_starts=[int(starts[0])])},
    )


def _assert_old_header_loads_bitwise(tmp_path, fitted_context, **keys) -> None:
    """A checkpoint and a bundle whose header config carries ``keys``
    load with no argument and predict bitwise."""
    from repro.serving.transport import load_bundle

    model, dataset, split, starts = fitted_context
    baseline = model.predict(starts)

    path = save_forecaster(model, tmp_path / "model.npz")
    _add_config_keys(path, **keys)
    loaded = load_forecaster(path, dataset, split)
    assert loaded.config == model.config
    np.testing.assert_array_equal(loaded.predict(starts), baseline)

    _save_demo_bundle(tmp_path / "bundle", model, starts)
    _add_config_keys(tmp_path / "bundle" / "stsm_demo.npz", **keys)
    forecaster, warmups = load_bundle(tmp_path / "bundle")["stsm/demo"]
    assert warmups == [int(starts[0])]
    np.testing.assert_array_equal(forecaster.predict(starts), baseline)


@pytest.mark.parametrize("device, dtype", [(None, None), ("cpu", "float64")])
def test_parent_format_header_loads_and_predicts_bitwise(
    tmp_path, fitted_context, device, dtype
):
    _assert_old_header_loads_bitwise(tmp_path, fitted_context, device=device, dtype=dtype)


@pytest.mark.parametrize(
    "schedule, step_size, gamma",
    [(None, 10, 0.5), ("none", 3, 0.1)],  # the first is what older versions saved by default
)
def test_constant_rate_header_loads_and_predicts_bitwise(
    tmp_path, fitted_context, schedule, step_size, gamma
):
    # With no schedule, the step size and gamma never ran and drop
    # whatever their value.
    _assert_old_header_loads_bitwise(
        tmp_path, fitted_context,
        lr_schedule=schedule, lr_step_size=step_size, lr_gamma=gamma,
    )


@pytest.mark.parametrize("saved", [None, "numpy_ref", "numpy_fused", "torch"])
def test_saved_backend_name_loads_without_override(tmp_path, fitted_context, saved):
    # Checkpoint state is host float64 numpy, so a saved backend name
    # drops on load, even one that is no longer registered.
    if saved in ("numpy_fused", "torch"):
        with pytest.raises(UnknownBackendError, match="numpy_ref"):
            set_backend(saved)
    _assert_old_header_loads_bitwise(tmp_path, fitted_context, backend=saved)


def test_config_rejects_bad_dtype_and_device(tmp_path, fitted_context):
    # A saved device/dtype that numpy refused never loaded; it still
    # does not.  A model trained under an LR schedule is refused too.
    # The error names the field and its value.
    model, dataset, split, _starts = fitted_context
    for key, value in (
        ("dtype", "float32"), ("device", "cuda"),
        ("lr_schedule", "step"), ("lr_schedule", "cosine"),
    ):
        path = save_forecaster(model, tmp_path / f"{key}.npz")
        _add_config_keys(path, **{key: value})
        with pytest.raises(ValueError, match=f"{key}='{value}'"):
            load_forecaster(path, dataset, split)
