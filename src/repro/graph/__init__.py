"""Spatial graph utilities: distances, adjacency construction, sub-graphs,
and the road-network substrate used by the synthetic city and the
road-distance model variants."""

from .adjacency import (
    adjacency_density,
    gaussian_kernel_adjacency,
    gcn_normalise,
    row_normalise,
)
from .distances import euclidean_distance_matrix
from .roadnet import HIGHWAY_LEVELS, DEFAULT_MAXSPEED, RoadNetwork, RoadSegmentAttributes
from .subgraph import all_subgraphs, mean_subgraph_size, one_hop_subgraph

__all__ = [
    "gaussian_kernel_adjacency",
    "gcn_normalise",
    "row_normalise",
    "adjacency_density",
    "euclidean_distance_matrix",
    "RoadNetwork",
    "RoadSegmentAttributes",
    "HIGHWAY_LEVELS",
    "DEFAULT_MAXSPEED",
    "one_hop_subgraph",
    "all_subgraphs",
    "mean_subgraph_size",
]
