"""Multiple unobserved regions (the paper's stated future work, §6).

The paper's conclusion: "We only considered one unobserved region. In the
future, we plan to extend STSM to deal with multiple unobserved regions at
the same time."  This module provides that extension:

* :func:`multi_region_split` — partition locations so that ``k`` disjoint,
  spatially contiguous sub-regions are unobserved;
* :func:`multi_region_similarity` — selective-masking scores against
  *several* regions at once.  Each region keeps its own embedding and
  centroid; an observed sub-graph's score is its best match over regions
  (max cosine similarity, max inverse centroid distance), so sub-graphs
  resembling *any* unobserved region become maskable.  With one region
  this reduces exactly to §4.1's formulation.

The forecaster itself is already inductive over arbitrary observed /
unobserved partitions, so no model change is needed — only the similarity
computation that guides masking.
"""

from __future__ import annotations

import numpy as np

from ..data.dataset import LocationFeatures
from ..data.splits import SpaceSplit
from .features import (
    SubgraphSimilarity,
    cosine_similarities,
    normalise_feature_columns,
    region_embedding,
    subgraph_embeddings,
)

__all__ = ["multi_region_split", "multi_region_similarity"]


def multi_region_split(
    coords: np.ndarray,
    num_regions: int,
    unobserved_ratio: float = 0.5,
    rng: np.random.Generator | None = None,
) -> SpaceSplit:
    """Create a split whose test set is ``num_regions`` contiguous patches.

    Each patch grows around a random seed location by nearest-neighbour
    accretion until the patches jointly cover ``unobserved_ratio`` of all
    locations.  The remaining locations split 4:1 into train/validation
    (matching the paper's observed-region proportions).

    Parameters
    ----------
    coords:
        ``(N, 2)`` locations.
    num_regions:
        Number of disjoint unobserved patches (1 reduces to a contiguous
        single-region split).
    unobserved_ratio:
        Total fraction of locations without observations.
    rng:
        Seed source for patch placement (deterministic default).
    """
    coords = np.asarray(coords, dtype=float)
    n = len(coords)
    if num_regions < 1:
        raise ValueError("num_regions must be >= 1")
    if not 0.0 < unobserved_ratio < 1.0:
        raise ValueError(f"unobserved_ratio must be in (0, 1), got {unobserved_ratio}")
    target_total = max(num_regions, int(round(n * unobserved_ratio)))
    if target_total >= n - 1:
        raise ValueError("unobserved_ratio leaves too few observed locations")
    rng = rng if rng is not None else np.random.default_rng(0)

    per_region = np.full(num_regions, target_total // num_regions)
    per_region[: target_total % num_regions] += 1

    available = np.ones(n, dtype=bool)
    unobserved: list[int] = []
    for size in per_region:
        candidates = np.flatnonzero(available)
        if len(candidates) == 0:
            break
        seed = int(rng.choice(candidates))
        # Grow the patch by taking the `size` nearest available locations
        # to the seed (contiguous by construction).
        dist = np.linalg.norm(coords - coords[seed], axis=1)
        dist[~available] = np.inf
        members = np.argsort(dist)[: int(size)]
        members = members[np.isfinite(dist[members])]
        unobserved.extend(int(m) for m in members)
        available[members] = False

    unobserved_arr = np.array(sorted(set(unobserved)), dtype=int)
    observed = np.setdiff1d(np.arange(n), unobserved_arr)
    num_val = max(1, int(round(len(observed) * 0.2)))
    shuffled = rng.permutation(observed)
    validation = np.sort(shuffled[:num_val])
    train = np.sort(shuffled[num_val:])
    split = SpaceSplit(
        train=train,
        validation=validation,
        test=unobserved_arr,
        name=f"multi-region-{num_regions}",
    )
    split.validate(n)
    return split


def _contiguous_regions(coords: np.ndarray, index: np.ndarray, num_regions: int) -> list[np.ndarray]:
    """Cluster unobserved locations back into spatial patches (k-means-lite)."""
    index = np.asarray(index, dtype=int)
    if num_regions <= 1 or len(index) <= num_regions:
        return [index]
    points = coords[index]
    # Deterministic farthest-point initialisation.
    centres = [points[0]]
    for _ in range(num_regions - 1):
        dist = np.min(
            np.stack([np.linalg.norm(points - c, axis=1) for c in centres]), axis=0
        )
        centres.append(points[int(np.argmax(dist))])
    centres_arr = np.stack(centres)
    for _ in range(10):
        assign = np.argmin(
            np.linalg.norm(points[:, None, :] - centres_arr[None, :, :], axis=2), axis=1
        )
        for k in range(num_regions):
            members = points[assign == k]
            if len(members):
                centres_arr[k] = members.mean(axis=0)
    return [index[assign == k] for k in range(num_regions) if (assign == k).any()]


def multi_region_similarity(
    features: LocationFeatures,
    coords: np.ndarray,
    subgraph_adjacency_full: np.ndarray,
    observed_index: np.ndarray,
    unobserved_index: np.ndarray,
    num_regions: int,
) -> SubgraphSimilarity:
    """Selective-masking scores against several unobserved regions.

    The unobserved locations are clustered into ``num_regions`` contiguous
    patches; each observed sub-graph scores ``max`` similarity over the
    per-patch embeddings and ``max`` inverse distance over the per-patch
    centroids.  Returns the same :class:`SubgraphSimilarity` container the
    single-region pipeline consumes.
    """
    observed_index = np.asarray(observed_index, dtype=int)
    unobserved_index = np.asarray(unobserved_index, dtype=int)
    embeddings = normalise_feature_columns(features.embedding_matrix())
    sub_adj = subgraph_adjacency_full[np.ix_(observed_index, observed_index)]
    sg_embed = subgraph_embeddings(embeddings[observed_index], sub_adj)

    regions = _contiguous_regions(coords, unobserved_index, num_regions)
    similarity = np.full(len(observed_index), -np.inf)
    proximity = np.zeros(len(observed_index))
    for region in regions:
        l_u = region_embedding(embeddings, region)
        similarity = np.maximum(similarity, cosine_similarities(sg_embed, l_u))
        centroid = coords[region].mean(axis=0)
        dist = np.linalg.norm(coords[observed_index] - centroid, axis=1)
        proximity = np.maximum(proximity, 1.0 / np.maximum(dist, 1e-6))
    return SubgraphSimilarity(similarity, proximity, observed_index)
