"""Temporal utilities: DTW, temporal-similarity adjacency, time features."""

from .dtw import daily_profile, downsample_profile, dtw_distance, dtw_distance_matrix
from .similarity import build_dtw_adjacency, temporal_adjacency
from .timefeatures import normalised_time_encoding

__all__ = [
    "dtw_distance",
    "dtw_distance_matrix",
    "daily_profile",
    "downsample_profile",
    "temporal_adjacency",
    "build_dtw_adjacency",
    "normalised_time_encoding",
]
