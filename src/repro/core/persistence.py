"""Saving and loading trained STSM models.

A fitted :class:`~repro.core.model.STSMForecaster` owns three kinds of
state: the network weights, the configuration, and the fitted scaler.  The
dataset/split context is *not* serialised — on load, the caller re-attaches
a dataset and split (typically the same ones) and the forecaster rebuilds
its test-graph caches.  Format: a single ``.npz`` with a JSON header.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from ..data.dataset import SpatioTemporalDataset
from ..data.scalers import StandardScaler
from ..data.splits import SpaceSplit
from ..data.windows import WindowSpec
from .config import STSMConfig
from .model import STSMForecaster
from .network import STSMNetwork

__all__ = ["save_forecaster", "load_forecaster"]

_HEADER_KEY = "__header__"
_FORMAT_VERSION = 1

#: Config keys that older checkpoints carry but ``STSMConfig`` no longer
#: has, each with the values that still load (``None``: any value).
_RETIRED_CONFIG_KEYS = {
    "backend": None,
    "device": (None, "cpu"),
    "dtype": (None, "float64"),
    "lr_schedule": (None, "none"),
    "lr_step_size": None,
    "lr_gamma": None,
}


def save_forecaster(forecaster: STSMForecaster, path: str | Path) -> Path:
    """Serialise a fitted forecaster to ``path`` (``.npz``)."""
    if not getattr(forecaster, "_fitted", False) or forecaster.network is None:
        raise ValueError("cannot save an unfitted forecaster")
    path = Path(path)
    header = {
        "format_version": _FORMAT_VERSION,
        "name": forecaster.name,
        "config": dataclasses.asdict(forecaster.config),
        "spec": {
            "input_length": forecaster.spec.input_length,
            "horizon": forecaster.spec.horizon,
        },
        "scaler": {"mean": forecaster.scaler.mean_, "std": forecaster.scaler.std_},
    }
    arrays = {
        f"param::{name}": values for name, values in forecaster.network.state_dict().items()
    }
    arrays[_HEADER_KEY] = np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8
    )
    np.savez(path, **arrays)
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_forecaster(
    path: str | Path,
    dataset: SpatioTemporalDataset,
    split: SpaceSplit,
) -> STSMForecaster:
    """Load a saved forecaster and re-attach its data context.

    Parameters
    ----------
    path:
        File produced by :func:`save_forecaster`.
    dataset / split:
        The data context to predict against (normally the ones used at
        training time; a different dataset with the same geometry also
        works because the network is inductive).
    """
    archive = np.load(Path(path), allow_pickle=False)
    if _HEADER_KEY not in archive:
        raise ValueError(f"{path} is not a saved STSM forecaster")
    header = json.loads(bytes(archive[_HEADER_KEY]).decode("utf-8"))
    if header.get("format_version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported format version {header.get('format_version')}")

    config = _config_from_header(header["config"])
    spec = WindowSpec(**header["spec"])
    forecaster = STSMForecaster(config, name=header["name"])
    forecaster.dataset = dataset
    forecaster.split = split
    forecaster.spec = spec

    scaler = StandardScaler()
    scaler.mean_ = header["scaler"]["mean"]
    scaler.std_ = header["scaler"]["std"]
    forecaster.scaler = scaler
    forecaster._scaled_full = scaler.transform(dataset.values)

    state = {
        key.removeprefix("param::"): archive[key]
        for key in archive.files
        if key.startswith("param::")
    }
    network = STSMNetwork(config, horizon=spec.horizon, input_length=spec.input_length)
    network.load_state_dict(state)
    forecaster.network = network

    from .model import compute_distance_matrices  # local import avoids cycle
    from ..graph.adjacency import gaussian_kernel_adjacency

    dist_adj, dist_pseudo = compute_distance_matrices(dataset, config.distance_mode)
    forecaster._dist_pseudo = dist_pseudo
    off = dist_adj[~np.eye(len(dist_adj), dtype=bool)]
    sigma = max(float(off.std()) * config.sigma_scale, 1e-9)
    forecaster._a_s_full = gaussian_kernel_adjacency(
        dist_adj, threshold=config.epsilon_s, sigma=sigma
    )
    forecaster._fitted = True
    forecaster._prepare_test_graph()
    return forecaster


def _config_from_header(fields: dict) -> STSMConfig:
    """Rebuild a saved config, dropping the retired keys.

    A saved ``backend`` name drops whatever its value: checkpoint state
    is host float64 numpy, so a model saved under any backend loads and
    predicts under the one that exists.  A device/dtype value the numpy
    backend accepted drops silently; any other never ran on numpy
    either, so it is refused rather than ignored.  Likewise a model
    trained at a constant rate (``lr_schedule`` ``None`` or ``"none"``)
    drops its unused step size and gamma, and one trained under a
    schedule, which this version cannot refit, is refused.
    """
    fields = dict(fields)
    for key, accepted in _RETIRED_CONFIG_KEYS.items():
        value = fields.pop(key, None)
        if accepted is not None and value not in accepted:
            raise ValueError(
                f"saved config has {key}={value!r}; this version loads "
                f"{key} only as one of {accepted}"
            )
    return STSMConfig(**fields)
