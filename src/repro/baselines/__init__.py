"""Baseline forecasters the paper compares against (§5.1.2), the classical
methods its related work cites (§2.2), and naive sanity references used by
the test suite."""

from .completion import MatrixCompletionForecaster, als_graph_completion, graph_laplacian
from .gegan import GEGANForecaster
from .graph_embedding import most_similar_nodes, spectral_embedding
from .ignnk import DiffusionGCN, IGNNKForecaster, IGNNKNetwork
from .increase import INCREASEForecaster, INCREASENetwork
from .kriging import (
    GPKrigingForecaster,
    gaussian_covariance,
    loo_lengthscale_search,
    ordinary_kriging_weights,
)
from .mean import HistoricalAverageForecaster, IDWPersistenceForecaster, NearestObservedForecaster

__all__ = [
    "GEGANForecaster",
    "IGNNKForecaster",
    "IGNNKNetwork",
    "DiffusionGCN",
    "INCREASEForecaster",
    "INCREASENetwork",
    "GPKrigingForecaster",
    "gaussian_covariance",
    "ordinary_kriging_weights",
    "loo_lengthscale_search",
    "MatrixCompletionForecaster",
    "als_graph_completion",
    "graph_laplacian",
    "HistoricalAverageForecaster",
    "NearestObservedForecaster",
    "IDWPersistenceForecaster",
    "spectral_embedding",
    "most_similar_nodes",
]
