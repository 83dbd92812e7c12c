"""STSM — the paper's primary contribution.

Public surface: :class:`STSMForecaster` (train/predict), :class:`STSMConfig`
(all hyper-parameters), the variant constructors, and the building blocks
(pseudo-observations, masking, GCN/TCN modules) for users who want to
recompose them.
"""

from ..data.missing import NonFiniteObservationsError
from .config import PAPER_PARAMETERS, STSMConfig, config_for_dataset
from .features import (
    SubgraphSimilarity,
    compute_subgraph_similarity,
    cosine_similarities,
    normalise_feature_columns,
    region_embedding,
    spatial_proximities,
    subgraph_embeddings,
)
from .gcn import GCN, GCNL, DualGraphAttention, DualGraphConv, GCNBranch
from .masking import SelectiveMasker, random_subgraph_mask, selective_masking_probabilities
from .model import STSMForecaster, compute_distance_matrices
from .multiregion import multi_region_similarity, multi_region_split
from .persistence import load_forecaster, save_forecaster
from .network import STBlock, STSMNetwork
from .pseudo import fill_pseudo_observations, idw_weights
from .tcn import DilatedTCN, RecurrentTemporal, TransformerTemporal
from .uncertainty import DeepEnsembleForecaster, MCDropoutForecaster
from .variants import (
    STSM_VARIANTS,
    make_stsm,
    make_stsm_gat,
    make_stsm_nc,
    make_stsm_r,
    make_stsm_rd_a,
    make_stsm_rd_m,
    make_stsm_rnc,
    make_stsm_trans,
)

__all__ = [
    "STSMConfig",
    "config_for_dataset",
    "PAPER_PARAMETERS",
    "STSMForecaster",
    "NonFiniteObservationsError",
    "compute_distance_matrices",
    "multi_region_split",
    "multi_region_similarity",
    "save_forecaster",
    "load_forecaster",
    "STSMNetwork",
    "STBlock",
    "GCN",
    "GCNL",
    "GCNBranch",
    "DualGraphConv",
    "DualGraphAttention",
    "DilatedTCN",
    "TransformerTemporal",
    "RecurrentTemporal",
    "fill_pseudo_observations",
    "idw_weights",
    "random_subgraph_mask",
    "selective_masking_probabilities",
    "SelectiveMasker",
    "SubgraphSimilarity",
    "compute_subgraph_similarity",
    "subgraph_embeddings",
    "region_embedding",
    "cosine_similarities",
    "spatial_proximities",
    "normalise_feature_columns",
    "make_stsm",
    "make_stsm_nc",
    "make_stsm_r",
    "make_stsm_rnc",
    "make_stsm_trans",
    "make_stsm_gat",
    "make_stsm_rd_a",
    "make_stsm_rd_m",
    "STSM_VARIANTS",
    "MCDropoutForecaster",
    "DeepEnsembleForecaster",
]
