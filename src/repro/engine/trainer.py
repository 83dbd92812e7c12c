"""Shared training engine driving every learned forecaster.

Before this engine existed, STSM and the four learned baselines each
hand-rolled an epoch/batch loop with subtly different validation and
checkpointing behaviour.  The :class:`Trainer` consolidates that
machinery — seeded epoch iteration, per-batch gradient steps with
clipping, loss history, early stopping with best-weight restore —
behind one loop, while each model contributes only the parts that are
genuinely model-specific through a :class:`TrainingProgram`.

Determinism contract: the Trainer threads a single ``numpy`` Generator
through the program hooks in a fixed order (``on_epoch_start`` →
``batches`` → ``train_batch``), so a program that consumed randomness in
that order before the refactor produces bit-identical draws after it.

Hook surface (override what the model needs, inherit the rest):

``on_epoch_start(epoch, rng)``
    Per-epoch state rebuild — STSM redraws its mask and rebuilds the
    temporal adjacency here.
``batches(epoch, rng)``
    Yields opaque batch objects.  Iteration-style models (IGNNK,
    INCREASE, GE-GAN) yield exactly one freshly drawn batch per epoch.
``train_batch(batch, rng)``
    One gradient step; the default implements the standard
    zero-grad → loss → backward → clip → step sequence with the
    program's single ``optimiser``.  GE-GAN overrides it with its
    two-optimiser adversarial step.
``run_epoch(epoch, rng)``
    The default averages ``train_batch`` losses over ``batches``; purely
    non-gradient models (ALS matrix completion) replace the whole epoch
    body instead.
``validation_score(epoch)``
    Monitored score for early stopping; ``None`` disables monitoring.
"""

from __future__ import annotations

import time
import warnings
import zipfile
from typing import Iterator, Mapping

import numpy as np

from ..nn.module import Module
from ..obs.metrics import global_registry
from ..obs.profiling import obs_enabled
from ..obs.trace import (
    TraceContext,
    get_recorder,
    mint_span_id,
    mint_trace_id,
    record_span,
)
from ..optim import Optimizer, clip_grad_norm
from .callbacks import EarlyStopping, History

__all__ = ["TrainingProgram", "Trainer"]


class TrainingProgram:
    """Model-specific hooks consumed by the :class:`Trainer`.

    Subclasses set :attr:`network` (checkpointed by early stopping and
    toggled into train mode each epoch), :attr:`optimiser` and
    :attr:`grad_clip` (used by the default ``train_batch``), or override
    the corresponding hooks outright.
    """

    #: Main module, used for train-mode toggling and state snapshots.
    network: Module | None = None
    #: Optimiser driving the default ``train_batch``.
    optimiser: Optimizer | None = None
    #: Global gradient-norm ceiling (None disables clipping).
    grad_clip: float | None = None

    # -- per-epoch hooks ------------------------------------------------
    def on_epoch_start(self, epoch: int, rng: np.random.Generator | None) -> None:
        """Rebuild per-epoch state (masks, adjacencies, ...)."""

    def batches(self, epoch: int, rng: np.random.Generator | None) -> Iterator:
        """Yield the epoch's batches (draw randomness from ``rng``)."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement batches() or override run_epoch()"
        )

    def compute_loss(self, batch, rng: np.random.Generator | None):
        """Forward pass returning the scalar loss Tensor for ``batch``."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement compute_loss() or override train_batch()"
        )

    def train_batch(self, batch, rng: np.random.Generator | None) -> float:
        """One optimisation step; returns the batch loss as a float."""
        if self.optimiser is None:
            raise RuntimeError(
                f"{type(self).__name__} has no optimiser; set one or override train_batch()"
            )
        self.optimiser.zero_grad()
        loss = self.compute_loss(batch, rng)
        loss.backward()
        if self.grad_clip is not None:
            clip_grad_norm(self.optimiser.parameters, self.grad_clip)
        self.optimiser.step()
        return loss.item()

    def run_epoch(self, epoch: int, rng: np.random.Generator | None) -> float:
        """Run all batches of one epoch; returns the mean batch loss."""
        total = 0.0
        count = 0
        for batch in self.batches(epoch, rng):
            total += self.train_batch(batch, rng)
            count += 1
        return total / max(count, 1)

    def validation_score(self, epoch: int) -> float | None:
        """Score monitored by early stopping (lower is better)."""
        return None

    # -- mode & checkpointing -------------------------------------------
    def set_train_mode(self, mode: bool) -> None:
        if self.network is not None:
            self.network.train(mode)

    def state_dict(self) -> Mapping[str, np.ndarray]:
        if self.network is None:
            raise RuntimeError(f"{type(self).__name__} has no network to snapshot")
        return self.network.state_dict()

    def load_state_dict(self, state: Mapping[str, np.ndarray]) -> None:
        if self.network is None:
            raise RuntimeError(f"{type(self).__name__} has no network to restore")
        self.network.load_state_dict(state)


class Trainer:
    """Seeded epoch loop shared by all learned forecasters.

    Parameters
    ----------
    program:
        The model's :class:`TrainingProgram`.
    max_epochs:
        Upper bound on epochs (iteration-style models pass their
        iteration budget and yield one batch per epoch).
    rng:
        Generator threaded through every program hook; ``None`` for
        programs that consume no randomness (e.g. ALS sweeps).
    early_stopping:
        Optional :class:`EarlyStopping`; consulted only on epochs whose
        ``validation_score`` is not ``None``, and its best snapshot is
        restored once training ends.
    store:
        Optional shared :class:`~repro.engine.store.ArtifactStore` the
        program's caches draw from; the trainer persists its dirty
        entries to the disk tier once the loop finishes, so artifacts
        computed during this fit survive into later processes (a no-op
        for memory-only stores).
    """

    def __init__(
        self,
        program: TrainingProgram,
        *,
        max_epochs: int,
        rng: np.random.Generator | None = None,
        early_stopping: EarlyStopping | None = None,
        store=None,
    ) -> None:
        if max_epochs < 0:
            raise ValueError(f"max_epochs must be >= 0, got {max_epochs}")
        self.program = program
        self.max_epochs = max_epochs
        self.rng = rng
        self.early_stopping = early_stopping
        self.store = store
        self.history = History()
        #: Per-epoch/per-phase timing profile of the most recent
        #: :meth:`fit` (``REPRO_OBS=1`` only; ``None`` otherwise).
        self.profile: dict | None = None

    def fit(self) -> History:
        """Run the training loop; returns the recorded :class:`History`.

        With observability on (``REPRO_OBS=1``) the loop additionally
        times every epoch's phases (``epoch_start`` / ``run_epoch`` /
        ``validate``), publishes per-epoch durations to the global
        ``repro_train_epoch_seconds`` histogram, records ``train.*``
        spans under a fresh trace, and leaves the collected numbers on
        :attr:`profile`.  Profiling reads clocks only — the hook order
        and every RNG draw are identical with it on or off.
        """
        if not obs_enabled():
            self.profile = None
            return self._fit_loop(None, None)
        profile = {"epochs": [], "phase_seconds": {
            "epoch_start": 0.0, "run_epoch": 0.0, "validate": 0.0,
        }}
        # The root span's id is pre-minted so per-epoch spans recorded
        # during the loop can already parent under it; the root itself
        # is recorded once its duration is known.
        root = TraceContext(mint_trace_id(), mint_span_id())
        fit_began = time.monotonic()
        try:
            return self._fit_loop(profile, root)
        finally:
            fit_ended = time.monotonic()
            get_recorder().record({
                "trace": root.trace_id,
                "span": root.span_id,
                "parent": None,
                "name": "train.fit",
                "start": fit_began,
                "dur": fit_ended - fit_began,
                "wall": time.time(),
                "attrs": {
                    "program": type(self.program).__name__,
                    "epochs": len(profile["epochs"]),
                },
            })
            profile["total_seconds"] = fit_ended - fit_began
            profile["trace_id"] = root.trace_id
            self.profile = profile

    def _fit_loop(
        self, profile: dict | None, root: TraceContext | None
    ) -> History:
        program = self.program
        epoch_hist = (
            global_registry().histogram(
                "repro_train_epoch_seconds",
                "Wall-clock seconds per training epoch (REPRO_OBS=1)",
            ).labels()
            if profile is not None
            else None
        )
        for epoch in range(self.max_epochs):
            if profile is None:
                program.on_epoch_start(epoch, self.rng)
                program.set_train_mode(True)
                train_loss = program.run_epoch(epoch, self.rng)
                score = program.validation_score(epoch)
            else:
                t0 = time.monotonic()
                program.on_epoch_start(epoch, self.rng)
                program.set_train_mode(True)
                t1 = time.monotonic()
                train_loss = program.run_epoch(epoch, self.rng)
                t2 = time.monotonic()
                score = program.validation_score(epoch)
                t3 = time.monotonic()
                timings = {
                    "epoch": epoch,
                    "epoch_start": t1 - t0,
                    "run_epoch": t2 - t1,
                    "validate": t3 - t2,
                    "total": t3 - t0,
                }
                profile["epochs"].append(timings)
                for phase in ("epoch_start", "run_epoch", "validate"):
                    profile["phase_seconds"][phase] += timings[phase]
                epoch_hist.observe(timings["total"])
                epoch_ctx = record_span(
                    "train.epoch", root, t0, t3, epoch=epoch
                )
                record_span("train.epoch_start", epoch_ctx, t0, t1)
                record_span("train.run_epoch", epoch_ctx, t1, t2)
                record_span("train.validate", epoch_ctx, t2, t3)
            self.history.record(train_loss, score)
            if self.early_stopping is not None and score is not None:
                self.early_stopping.update(score, program.state_dict)
                if self.early_stopping.should_stop:
                    break
        if self.early_stopping is not None:
            self.early_stopping.restore(program.load_state_dict)
        if self.store is not None:
            self.store.persist()
        return self.history

    def restore(self, checkpoint_dir) -> bool:
        """Load the best-epoch weights saved in ``checkpoint_dir`` into the
        program (warm-starting from another run's checkpoint).  Returns
        True when weights were loaded.
        """
        try:
            state, _metadata = EarlyStopping.load_checkpoint(checkpoint_dir)
        except FileNotFoundError:
            return False
        except (ValueError, OSError, zipfile.BadZipFile) as error:
            # A corrupt archive (e.g. from a pre-atomic-write version or a
            # damaged disk) should degrade to "nothing to restore", not
            # crash the warm start.
            warnings.warn(f"ignoring unreadable checkpoint in {checkpoint_dir}: {error}")
            return False
        self.program.load_state_dict(state)
        return True
