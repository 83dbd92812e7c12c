"""Training callbacks shared by every learned forecaster.

The :class:`Trainer` drives these; they carry no model-specific logic.
``EarlyStopping`` reproduces the monitoring rule STSM used inline before
the engine refactor: an epoch "improves" only when the monitored score
drops below the best score by more than ``MIN_DELTA`` (a NaN score never
improves, so models without a validation signal simply exhaust their
patience), and the best epoch's weights are snapshotted so they can be
restored when training stops.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

__all__ = ["EarlyStopping", "History"]


class History:
    """Per-epoch training curve collected by the :class:`Trainer`.

    Attributes
    ----------
    train_losses:
        One entry per completed epoch (mean batch loss, or whatever the
        program's ``run_epoch`` returns).
    val_scores:
        Monitored validation scores, aligned with ``train_losses``; NaN
        when the program produced no score that epoch.
    """

    def __init__(self) -> None:
        self.train_losses: list[float] = []
        self.val_scores: list[float] = []

    def record(self, train_loss: float, val_score: float | None = None) -> None:
        self.train_losses.append(float(train_loss))
        self.val_scores.append(float("nan") if val_score is None else float(val_score))

    @property
    def epochs(self) -> int:
        return len(self.train_losses)

    def best_val(self) -> float:
        """Smallest recorded validation score (NaN if none was finite)."""
        finite = [s for s in self.val_scores if np.isfinite(s)]
        return min(finite) if finite else float("nan")

    def __len__(self) -> int:
        return self.epochs

    def __repr__(self) -> str:
        return f"History(epochs={self.epochs}, best_val={self.best_val():.6g})"


class EarlyStopping:
    """Stop training when the monitored score stops improving.

    Parameters
    ----------
    patience:
        Number of consecutive non-improving epochs tolerated before
        :attr:`should_stop` turns True.
    checkpoint_dir:
        Optional directory; when set, every improvement also persists the
        best state dict to ``<dir>/best.npz`` (plus a ``best.json``
        metadata sidecar) so long fits survive restarts and later runs
        can warm-start via :meth:`load_checkpoint` /
        :meth:`~repro.engine.Trainer.restore`.

    The callback snapshots the program's state dict on every improvement
    and can :meth:`restore` it afterwards, so the model ends at its best
    validation epoch rather than its last.
    """

    #: Required improvement margin: ``score < best - MIN_DELTA``.
    MIN_DELTA = 1e-9
    #: File names used inside ``checkpoint_dir``.
    CHECKPOINT_FILE = "best.npz"
    METADATA_FILE = "best.json"

    def __init__(
        self,
        patience: int,
        checkpoint_dir: str | Path | None = None,
    ) -> None:
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        self.patience = patience
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
        self.best_score = float("inf")
        self.best_epoch: int | None = None
        self.best_state: Mapping[str, np.ndarray] | None = None
        self._patience_left = patience
        self._epochs_seen = 0

    def update(self, score: float, snapshot: Callable[[], Mapping[str, np.ndarray]]) -> bool:
        """Record one epoch's score; returns True when it improved.

        ``snapshot`` is only invoked on improvement, so programs with
        expensive state dicts pay nothing on flat epochs.  A NaN score
        compares False against any best and therefore never improves.
        """
        epoch = self._epochs_seen
        self._epochs_seen += 1
        if score < self.best_score - self.MIN_DELTA:
            self.best_score = float(score)
            self.best_epoch = epoch
            self.best_state = snapshot()
            self._patience_left = self.patience
            if self.checkpoint_dir is not None:
                self._persist()
            return True
        self._patience_left -= 1
        return False

    def _persist(self) -> None:
        """Write the best state dict and its metadata to ``checkpoint_dir``.

        Both files are written to temporaries and atomically renamed so a
        fit killed mid-save (the restart scenario checkpoints exist for)
        never leaves a truncated ``best.npz`` behind — the previous
        complete checkpoint survives instead.
        """
        directory = self.checkpoint_dir
        directory.mkdir(parents=True, exist_ok=True)
        state = {name: np.asarray(values) for name, values in self.best_state.items()}
        checkpoint_tmp = directory / (self.CHECKPOINT_FILE + ".tmp")
        with open(checkpoint_tmp, "wb") as handle:
            np.savez(handle, **state)
        os.replace(checkpoint_tmp, directory / self.CHECKPOINT_FILE)
        metadata = {"best_score": self.best_score, "best_epoch": self.best_epoch}
        metadata_tmp = directory / (self.METADATA_FILE + ".tmp")
        metadata_tmp.write_text(json.dumps(metadata))
        os.replace(metadata_tmp, directory / self.METADATA_FILE)

    @classmethod
    def load_checkpoint(
        cls, checkpoint_dir: str | Path
    ) -> tuple[dict[str, np.ndarray], dict]:
        """Load ``(state_dict, metadata)`` persisted by a prior fit.

        Raises ``FileNotFoundError`` when the directory holds no
        checkpoint.
        """
        directory = Path(checkpoint_dir)
        path = directory / cls.CHECKPOINT_FILE
        if not path.exists():
            raise FileNotFoundError(f"no checkpoint at {path}")
        with np.load(path) as archive:
            state = {name: archive[name] for name in archive.files}
        meta_path = directory / cls.METADATA_FILE
        metadata = json.loads(meta_path.read_text()) if meta_path.exists() else {}
        return state, metadata

    @property
    def should_stop(self) -> bool:
        return self._patience_left <= 0

    def restore(self, load: Callable[[Mapping[str, np.ndarray]], None]) -> bool:
        """Load the best snapshot back; returns False if none was taken."""
        if self.best_state is None:
            return False
        load(self.best_state)
        return True
