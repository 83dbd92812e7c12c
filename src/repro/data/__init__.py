"""Dataset containers, splits, windowing, scaling, and synthetic presets."""

from .dataset import LocationFeatures, SpatioTemporalDataset
from .missing import (
    apply_missing,
    block_missing_mask,
    impute_forward_fill,
    impute_linear,
    random_missing_mask,
)
from .scalers import StandardScaler
from .splits import (
    SpaceSplit,
    progressive_splits,
    scattered_split,
    space_split,
    temporal_split,
)
from .windows import WindowSpec, iterate_batches, window_starts
from . import synthetic

__all__ = [
    "SpatioTemporalDataset",
    "LocationFeatures",
    "random_missing_mask",
    "block_missing_mask",
    "apply_missing",
    "impute_forward_fill",
    "impute_linear",
    "StandardScaler",
    "SpaceSplit",
    "space_split",
    "scattered_split",
    "progressive_splits",
    "temporal_split",
    "WindowSpec",
    "window_starts",
    "iterate_batches",
    "synthetic",
]
