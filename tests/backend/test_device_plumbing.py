"""Backend-neutral checkpoints: cross-backend restore, serving-bundle
backend overrides, and checkpoints saved by older versions.

The ``twin_backend`` fixture's renamed ``numpy_ref`` is the second
backend.  The contract under test: checkpoints are backend-neutral (host
numpy), a model saved under one backend restores and predicts under
another, and a checkpoint saved under a retired backend name, or with
the retired ``device``/``dtype`` config keys, still loads.
"""

from __future__ import annotations

import dataclasses
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


@pytest.mark.parametrize("retired", ["numpy_fused", "torch"])
def test_retired_numpy_fused_name_is_unknown_but_loads_with_override(
    tmp_path, fitted_context, retired
):
    with pytest.raises(UnknownBackendError, match="numpy_ref"):
        set_backend(retired)
    # A checkpoint saved under a deleted backend restores through the
    # ordinary backend override.
    model, dataset, split, starts = fitted_context
    saved_config = model.config
    model.config = saved_config.replace(backend=retired)
    try:
        path = save_forecaster(model, tmp_path / "model.npz")
    finally:
        model.config = saved_config
    loaded = load_forecaster(path, dataset, split, backend="numpy_ref")
    np.testing.assert_array_equal(loaded.predict(starts), model.predict(starts))


# ----------------------------------------------------------------------
# Checkpoints written before device/dtype left STSMConfig
# ----------------------------------------------------------------------
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


@pytest.mark.parametrize("device, dtype", [(None, None), ("cpu", "float64")])
def test_parent_format_header_loads_and_predicts_bitwise(
    tmp_path, fitted_context, device, dtype
):
    from repro.serving.transport import load_bundle

    model, dataset, split, starts = fitted_context
    baseline = model.predict(starts)

    path = save_forecaster(model, tmp_path / "model.npz")
    _add_config_keys(path, device=device, dtype=dtype)
    loaded = load_forecaster(path, dataset, split)
    assert loaded.config == model.config
    np.testing.assert_array_equal(loaded.predict(starts), baseline)

    _save_demo_bundle(tmp_path / "bundle", model, starts)
    _add_config_keys(tmp_path / "bundle" / "stsm_demo.npz", device=device, dtype=dtype)
    forecaster, _warmups = load_bundle(tmp_path / "bundle")["stsm/demo"]
    np.testing.assert_array_equal(forecaster.predict(starts), baseline)


def test_config_rejects_bad_dtype_and_device(tmp_path, fitted_context):
    # A saved device/dtype that numpy refused never loaded; it still
    # does not, and the error names the field.
    model, dataset, split, _starts = fitted_context
    for key, value in (("dtype", "float32"), ("device", "cuda")):
        path = save_forecaster(model, tmp_path / f"{key}.npz")
        _add_config_keys(path, **{key: value})
        with pytest.raises(ValueError, match=key):
            load_forecaster(path, dataset, split)


# ----------------------------------------------------------------------
# Serving bundles
# ----------------------------------------------------------------------
def test_bundle_load_with_backend_override(tmp_path, twin_backend, fitted_context):
    from repro.serving.transport import load_bundle

    model, _dataset, _split, starts = fitted_context
    _save_demo_bundle(tmp_path / "bundle", model, starts)
    baseline = model.predict(starts)
    models = load_bundle(tmp_path / "bundle", backend=twin_backend)
    forecaster, warmups = models["stsm/demo"]
    assert forecaster.config.backend == twin_backend
    assert warmups == [int(starts[0])]
    np.testing.assert_allclose(forecaster.predict(starts), baseline, rtol=1e-6, atol=1e-8)


def test_serve_config_carries_backend_fields():
    from repro.serving.transport import ServeConfig

    config = ServeConfig(checkpoint_dir="/tmp/x", backend="numpy_ref")
    fields = dataclasses.asdict(config)
    assert fields["backend"] == "numpy_ref"
    assert "device" not in fields and "dtype" not in fields
