"""Disk-persistent checkpoints: EarlyStopping(checkpoint_dir) + Trainer.restore."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.engine import EarlyStopping, Trainer, TrainingProgram
from repro.nn import Linear, init, mse_loss
from repro.optim import SGD


class _RegressionProgram(TrainingProgram):
    """Minimal gradient program: one linear layer on a fixed problem."""

    def __init__(self, seed: int = 0, lr: float = 0.1, batches_per_epoch: int = 3) -> None:
        rng = np.random.default_rng(42)
        self.inputs = rng.normal(size=(24, 4))
        self.targets = self.inputs @ rng.normal(size=(4, 2)) + 0.01 * rng.normal(size=(24, 2))
        self.network = Linear(4, 2, rng=init.default_rng(seed))
        self.optimiser = SGD(self.network.parameters(), lr=lr)
        self.grad_clip = 5.0
        self.batches_per_epoch = batches_per_epoch
        self.val_schedule: list[float] | None = None

    def batches(self, epoch, rng):
        for _ in range(self.batches_per_epoch):
            rows = rng.choice(len(self.inputs), size=8, replace=False)
            yield Tensor(self.inputs[rows]), Tensor(self.targets[rows])

    def compute_loss(self, batch, rng):
        x, y = batch
        return mse_loss(self.network(x), y)

    def validation_score(self, epoch):
        if self.val_schedule is None:
            return None
        return self.val_schedule[min(epoch, len(self.val_schedule) - 1)]


def _fit(program, checkpoint_dir, epochs=6, patience=3):
    early = EarlyStopping(patience=patience, checkpoint_dir=checkpoint_dir)
    trainer = Trainer(
        program, max_epochs=epochs, rng=np.random.default_rng(7), early_stopping=early
    )
    trainer.fit()
    return trainer, early


class TestCheckpointPersistence:
    def test_best_state_written_to_disk(self, tmp_path):
        program = _RegressionProgram()
        program.val_schedule = [5.0, 3.0, 4.0, 4.0, 4.0, 4.0]
        _trainer, early = _fit(program, tmp_path / "ckpt")
        assert (tmp_path / "ckpt" / EarlyStopping.CHECKPOINT_FILE).exists()
        metadata = json.loads((tmp_path / "ckpt" / EarlyStopping.METADATA_FILE).read_text())
        assert metadata["best_score"] == pytest.approx(3.0)
        assert metadata["best_epoch"] == 1

    def test_round_trip_matches_in_memory_snapshot(self, tmp_path):
        program = _RegressionProgram()
        program.val_schedule = [5.0, 3.0, 4.0, 4.0, 4.0, 4.0]
        _trainer, early = _fit(program, tmp_path / "ckpt")
        state, metadata = EarlyStopping.load_checkpoint(tmp_path / "ckpt")
        assert set(state) == set(early.best_state)
        for name, values in early.best_state.items():
            np.testing.assert_array_equal(state[name], values)
        assert metadata["best_score"] == pytest.approx(early.best_score)

    def test_trainer_restore_warm_starts_from_disk(self, tmp_path):
        # First fit persists its best epoch.
        program = _RegressionProgram()
        program.val_schedule = [5.0, 3.0, 4.0, 4.0, 4.0, 4.0]
        _fit(program, tmp_path / "ckpt")
        best = {k: v.copy() for k, v in program.network.state_dict().items()}

        # A fresh process/program: restore pulls the weights back off disk.
        fresh = _RegressionProgram(seed=123)
        trainer = Trainer(fresh, max_epochs=0, rng=None)
        assert trainer.restore(tmp_path / "ckpt")
        for name, values in fresh.network.state_dict().items():
            np.testing.assert_array_equal(values, best[name])

    def test_restore_without_checkpoint_returns_false(self, tmp_path):
        program = _RegressionProgram()
        trainer = Trainer(program, max_epochs=0, rng=None)
        assert not trainer.restore(tmp_path / "missing")

    def test_no_checkpoint_dir_keeps_memory_only_behaviour(self, tmp_path):
        program = _RegressionProgram()
        program.val_schedule = [5.0, 3.0, 4.0, 4.0, 4.0, 4.0]
        early = EarlyStopping(patience=3)
        Trainer(
            program, max_epochs=6, rng=np.random.default_rng(7), early_stopping=early
        ).fit()
        assert early.best_state is not None
        assert not list(tmp_path.iterdir())

    def test_load_checkpoint_missing_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            EarlyStopping.load_checkpoint(tmp_path)
