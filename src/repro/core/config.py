"""STSM hyper-parameter configuration.

Defaults follow paper §5.1.3 / Table 3: Adam at a constant lr 0.01,
batch 32, τ = 0.5, masking ratio σ_m = 0.5, ε_s = 0.05, q_kk = q_ku = 1,
with per-dataset λ / ε_sg / K.  Architecture sizes (hidden width, block
counts) are not printed in the paper; the defaults here were chosen to
train stably on the synthetic substrate and can be overridden per
experiment.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

__all__ = ["STSMConfig", "PAPER_PARAMETERS", "config_for_dataset"]

#: Per-dataset parameters from paper Table 3: (λ, ε_sg, r_poi, K).
PAPER_PARAMETERS = {
    "pems-bay": {"contrastive_weight": 0.01, "epsilon_sg": 0.5, "poi_radius": 200.0, "top_k": 35},
    "pems-07": {"contrastive_weight": 1.0, "epsilon_sg": 0.7, "poi_radius": 500.0, "top_k": 35},
    "pems-08": {"contrastive_weight": 0.5, "epsilon_sg": 0.5, "poi_radius": 500.0, "top_k": 35},
    "melbourne": {"contrastive_weight": 0.5, "epsilon_sg": 0.4, "poi_radius": 50.0, "top_k": 45},
    "airq": {"contrastive_weight": 1.0, "epsilon_sg": 0.6, "poi_radius": 500.0, "top_k": 5},
}


@dataclass
class STSMConfig:
    """All STSM knobs in one place.

    Modules can be toggled to express the paper's ablation variants:
    ``selective_masking=False`` → STSM-R family, ``contrastive=False`` →
    STSM-NC family, ``temporal_module="transformer"`` → STSM-trans,
    ``distance_mode`` → the road-distance variants of Table 11.
    """

    # Architecture
    hidden_dim: int = 32
    num_blocks: int = 2
    tcn_levels: int = 2
    tcn_kernel: int = 3
    gcn_depth: int = 2
    head_hidden: int = 32
    contrastive_dim: int = 32
    dropout: float = 0.1
    temporal_module: str = "tcn"  # "tcn" | "transformer" | "gru"
    spatial_module: str = "gcn"  # "gcn" | "gat"
    attention_heads: int = 4
    #: Heads for the GAT spatial module (must divide hidden_dim).
    gat_heads: int = 2

    # Optimisation (paper §5.1.3: Adam at a constant learning rate)
    learning_rate: float = 0.01
    batch_size: int = 32
    epochs: int = 30
    patience: int = 5
    grad_clip: float = 5.0
    window_stride: int = 1
    seed: int = 0

    # Masking (paper §3.3 / §4.1)
    mask_ratio: float = 0.5
    selective_masking: bool = True
    top_k: int = 35
    epsilon_sg: float = 0.5
    #: Number of contiguous unobserved patches the selective-masking
    #: similarity should target (1 = the paper's setting; >1 enables the
    #: multi-region extension of repro.core.multiregion).
    num_unobserved_regions: int = 1

    # Graph construction (paper §3.4.1)
    epsilon_s: float = 0.05
    #: Gaussian kernel bandwidth as a fraction of the distance std.  The
    #: paper leaves sigma unspecified; its Fig. 7 shows sparse adjacency
    #: matrices, which requires a bandwidth well below the distance std.
    sigma_scale: float = 0.35
    q_kk: int = 1
    q_ku: int = 1
    #: Top-k IDW sources per pseudo-observation (None = all observed,
    #: the literal Eq. 3).  At reduced sensor counts a small k keeps the
    #: fill as local as it is at the paper's density.
    pseudo_k: int | None = 3
    dtw_resolution: int = 24
    distance_mode: str = "euclidean"  # "euclidean" | "road_adj_only" | "road_all"

    # Contrastive learning (paper §4.2)
    contrastive: bool = True
    contrastive_weight: float = 0.5
    temperature: float = 0.5

    # Cross-fit artifact reuse (repro.engine.store): None auto-enables
    # the shared content-addressed store when the process has opted in
    # (REPRO_CACHE_DIR set or open_store() called); True forces the
    # shared store, False forces per-fit cache isolation.  Hits are
    # bit-exact, so fixed-seed metrics are identical either way.
    cache_store: bool | None = None

    def replace(self, **changes) -> "STSMConfig":
        """Return a copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def validate(self) -> None:
        """Sanity-check field ranges; raises ``ValueError`` on bad values."""
        if self.temporal_module not in ("tcn", "transformer", "gru"):
            raise ValueError(f"unknown temporal_module {self.temporal_module!r}")
        if self.spatial_module not in ("gcn", "gat"):
            raise ValueError(f"unknown spatial_module {self.spatial_module!r}")
        if self.spatial_module == "gat" and self.hidden_dim % self.gat_heads != 0:
            raise ValueError(
                f"hidden_dim {self.hidden_dim} must divide by gat_heads {self.gat_heads}"
            )
        if self.distance_mode not in ("euclidean", "road_adj_only", "road_all"):
            raise ValueError(f"unknown distance_mode {self.distance_mode!r}")
        if not 0.0 < self.mask_ratio < 1.0:
            raise ValueError("mask_ratio must be in (0, 1)")
        if not 0.0 < self.epsilon_s <= 1.0 or not 0.0 < self.epsilon_sg <= 1.0:
            raise ValueError("adjacency thresholds must be in (0, 1]")
        if self.hidden_dim <= 0 or self.num_blocks <= 0:
            raise ValueError("architecture sizes must be positive")
        if self.cache_store is not None and not isinstance(self.cache_store, bool):
            raise ValueError(
                f"cache_store must be True, False or None, got {self.cache_store!r}"
            )


def config_for_dataset(dataset_name: str, **overrides) -> STSMConfig:
    """Config with the paper's Table 3 parameters for a dataset preset.

    ``dataset_name`` may be a preset key (``"pems-bay"``) or a generated
    dataset name (``"pems-bay-synth"``); matching is by prefix.
    """
    params: dict = {}
    for key, values in PAPER_PARAMETERS.items():
        if dataset_name.startswith(key):
            params = {k: v for k, v in values.items() if k != "poi_radius"}
            break
    params.update(overrides)
    return STSMConfig(**params)
