"""Trainer + callbacks: determinism, early stopping, scheduler hooks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.engine import EarlyStopping, History, Trainer, TrainingProgram
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


class TestTrainerDeterminism:
    def test_same_seed_is_bit_identical(self):
        def run():
            program = _RegressionProgram()
            history = Trainer(
                program, max_epochs=5, rng=np.random.default_rng(7)
            ).fit()
            return history, program.network.state_dict()

        history_a, state_a = run()
        history_b, state_b = run()
        assert history_a.train_losses == history_b.train_losses
        for name in state_a:
            assert np.array_equal(state_a[name], state_b[name]), name

    def test_different_seed_differs(self):
        losses = []
        for seed in (7, 8):
            program = _RegressionProgram()
            history = Trainer(
                program, max_epochs=3, rng=np.random.default_rng(seed)
            ).fit()
            losses.append(history.train_losses)
        assert losses[0] != losses[1]

    def test_loss_decreases(self):
        program = _RegressionProgram()
        history = Trainer(program, max_epochs=20, rng=np.random.default_rng(0)).fit()
        assert history.train_losses[-1] < history.train_losses[0]

    def test_negative_max_epochs_rejected(self):
        with pytest.raises(ValueError):
            Trainer(_RegressionProgram(), max_epochs=-1)

    def test_zero_epochs_trains_nothing(self):
        program = _RegressionProgram()
        history = Trainer(program, max_epochs=0, rng=np.random.default_rng(0)).fit()
        assert history.epochs == 0


class TestEarlyStopping:
    def test_restores_best_epoch_weights(self):
        # Validation improves for 3 epochs then worsens; training keeps
        # mutating weights, so the restored state must match the snapshot
        # taken at the best (third) epoch, not the final weights.
        program = _RegressionProgram()
        program.val_schedule = [0.9, 0.5, 0.1, 0.7, 0.8, 0.9, 1.0]
        snapshots = {}
        original_run_epoch = program.run_epoch

        def spying_run_epoch(epoch, rng):
            loss = original_run_epoch(epoch, rng)
            snapshots[epoch] = program.network.state_dict()
            return loss

        program.run_epoch = spying_run_epoch
        early = EarlyStopping(patience=2)
        history = Trainer(
            program, max_epochs=10, rng=np.random.default_rng(3), early_stopping=early
        ).fit()
        # Stopped after epoch index 4 (two non-improving epochs past the best).
        assert history.epochs == 5
        assert early.best_score == pytest.approx(0.1)
        for name, values in snapshots[2].items():
            assert np.array_equal(program.network.state_dict()[name], values), name
        # And the final weights differ from the last epoch's (restore happened).
        assert any(
            not np.array_equal(snapshots[4][name], values)
            for name, values in program.network.state_dict().items()
        )

    def test_nan_scores_never_improve(self):
        early = EarlyStopping(patience=3)
        for _ in range(3):
            early.update(float("nan"), lambda: {})
        assert early.should_stop
        assert early.best_state is None

    def test_restore_without_snapshot_is_noop(self):
        early = EarlyStopping(patience=1)
        called = []
        assert early.restore(called.append) is False
        assert called == []

    def test_patience_validated(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)

    def test_no_validation_signal_runs_all_epochs(self):
        program = _RegressionProgram()  # validation_score() -> None
        early = EarlyStopping(patience=1)
        history = Trainer(
            program, max_epochs=4, rng=np.random.default_rng(0), early_stopping=early
        ).fit()
        assert history.epochs == 4


class TestHistory:
    def test_records_and_best(self):
        history = History()
        history.record(1.0, 0.5)
        history.record(0.8, None)
        history.record(0.7, 0.3)
        assert history.epochs == len(history) == 3
        assert np.isnan(history.val_scores[1])
        assert history.best_val() == pytest.approx(0.3)

    def test_best_val_empty_is_nan(self):
        assert np.isnan(History().best_val())


class TestProgramDefaults:
    def test_missing_optimiser_rejected(self):
        program = TrainingProgram()
        with pytest.raises(RuntimeError):
            program.train_batch(None, None)

    def test_missing_batches_rejected(self):
        with pytest.raises(NotImplementedError):
            list(TrainingProgram().batches(0, None))

    def test_missing_network_snapshot_rejected(self):
        with pytest.raises(RuntimeError):
            TrainingProgram().state_dict()
