"""Shared training engine: one epoch loop for every learned forecaster.

STSM and the learned baselines (IGNNK, GE-GAN, INCREASE, matrix
completion) all fit through :class:`Trainer` by expressing their
model-specific pieces as a :class:`TrainingProgram`; early stopping,
best-weight restore, loss history, LR scheduling and gradient clipping
live here exactly once.  :mod:`repro.engine.cache` adds the
content-addressed memoisation (mask-keyed adjacency/pseudo-observation
reuse, per-pair DTW) that makes repeated epochs and repeated fits cheap,
and :mod:`repro.engine.store` lifts it to a process-wide two-tier
:class:`ArtifactStore` so sweeps and fresh processes reuse artifacts
across fits (opt in via ``$REPRO_CACHE_DIR`` or
``STSMConfig.cache_store``).
"""

from .cache import LRUCache, PairwiseDTWCache, array_key
from .callbacks import EarlyStopping, History
from .store import (
    CACHE_DIR_ENV,
    CACHE_MAX_BYTES_ENV,
    CACHE_MEMORY_ITEMS_ENV,
    ArtifactStore,
    StoreConfig,
    StoreView,
    active_store,
    add_cache_arguments,
    default_store_scope,
    open_store,
    parse_byte_size,
    reset_store,
    store_config_from_args,
    store_metric_samples,
)
from .trainer import Trainer, TrainingProgram

__all__ = [
    "ArtifactStore",
    "CACHE_DIR_ENV",
    "CACHE_MAX_BYTES_ENV",
    "CACHE_MEMORY_ITEMS_ENV",
    "EarlyStopping",
    "History",
    "LRUCache",
    "PairwiseDTWCache",
    "StoreConfig",
    "StoreView",
    "Trainer",
    "TrainingProgram",
    "active_store",
    "add_cache_arguments",
    "array_key",
    "default_store_scope",
    "open_store",
    "parse_byte_size",
    "reset_store",
    "store_config_from_args",
    "store_metric_samples",
]
