"""Sub-graph masking strategies (paper §3.3 and §4.1).

Both strategies mask whole 1-hop sub-graphs (a seed location plus its
neighbours under ``A_sg``) to imitate a *contiguous* unobserved region:

* :func:`random_subgraph_mask` — the base model's strategy: repeatedly pick
  a random seed and mask its sub-graph until the masking ratio is reached.
* :class:`SelectiveMasker` — the full model's strategy: masking
  probabilities proportional to the similarity between each sub-graph and
  the unobserved region (Eq. 15), restricted to the top-K most similar
  sub-graphs, with seeds drawn from Bernoulli(p_i).
"""

from __future__ import annotations

import numpy as np

from ..graph.subgraph import all_subgraphs, mean_subgraph_size
from .features import SubgraphSimilarity

__all__ = ["random_subgraph_mask", "selective_masking_probabilities", "SelectiveMasker"]

#: At least this many observed locations must stay unmasked: the IDW fill
#: and the DTW adjacency need real sources to work from.
MIN_UNMASKED = 2


def _cap_masked(masked: set, num_locations: int, rng: np.random.Generator) -> np.ndarray:
    """Trim a mask so at least ``MIN_UNMASKED`` locations stay observed.

    Dense sub-graph geometries (e.g. tightly clustered stations) can make a
    single 1-hop sub-graph cover every observed location; masking them all
    would leave the pseudo-observation fill without sources.
    """
    ceiling = max(1, num_locations - MIN_UNMASKED)
    if len(masked) <= ceiling:
        return np.array(sorted(masked), dtype=int)
    kept = rng.choice(sorted(masked), size=ceiling, replace=False)
    return np.sort(kept).astype(int)


def random_subgraph_mask(
    subgraph_adjacency: np.ndarray,
    mask_ratio: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Random sub-graph masking over a graph of observed locations.

    Iteratively draws a random seed location and masks its 1-hop sub-graph
    until at least ``round(N_o * mask_ratio)`` locations are masked.
    Returns the sorted array of masked (local) indices.
    """
    if not 0.0 < mask_ratio < 1.0:
        raise ValueError(f"mask_ratio must be in (0, 1), got {mask_ratio}")
    n = len(subgraph_adjacency)
    target = max(1, int(round(n * mask_ratio)))
    members = all_subgraphs(subgraph_adjacency)
    masked: set[int] = set()
    candidates = rng.permutation(n)
    for seed in candidates:
        if len(masked) >= target:
            break
        masked.update(int(v) for v in members[int(seed)])
    return _cap_masked(masked, n, rng)


def selective_masking_probabilities(
    similarity: SubgraphSimilarity,
    mask_ratio: float,
    subgraph_adjacency: np.ndarray,
    top_k: int,
) -> np.ndarray:
    """Per-location masking probabilities (paper Eq. 15 with top-K filter).

    Parameters
    ----------
    similarity:
        Sub-graph similarity scores against the unobserved region.
    mask_ratio:
        δ_m — target fraction of observed locations to mask.
    subgraph_adjacency:
        ``A_sg`` restricted to observed locations (defines sub-graph sizes;
        δ_s is their mean, and δ_ms = δ_m / δ_s).
    top_k:
        K — only the K most (embedding-)similar sub-graphs keep non-zero
        probability; the rest are zeroed, which counteracts probability
        dilution on large graphs (paper §4.1).

    Returns
    -------
    ``(N_o,)`` probabilities, clipped to [0, 1].
    """
    if not 0.0 < mask_ratio < 1.0:
        raise ValueError(f"mask_ratio must be in (0, 1), got {mask_ratio}")
    if top_k <= 0:
        raise ValueError(f"top_k must be positive, got {top_k}")
    n = len(similarity.observed_index)
    delta_s = max(mean_subgraph_size(subgraph_adjacency), 1.0)
    delta_ms = mask_ratio / delta_s

    embedding_sim = similarity.embedding_similarity.copy()
    proximity = similarity.spatial_proximity.copy()
    if top_k < n:
        keep = np.argsort(embedding_sim)[::-1][:top_k]
        mask = np.zeros(n, dtype=bool)
        mask[keep] = True
        embedding_sim[~mask] = 0.0
        proximity[~mask] = 0.0

    # Cosine similarity can be negative; Eq. 15 treats the scores as
    # non-negative weights, so clamp before normalising.
    embedding_sim = np.maximum(embedding_sim, 0.0)

    def _normalised(scores: np.ndarray) -> np.ndarray:
        mean = scores.mean()
        if mean <= 0:
            return np.zeros_like(scores)
        return scores * delta_ms / mean

    probabilities = 0.5 * (_normalised(embedding_sim) + _normalised(proximity))
    return np.clip(probabilities, 0.0, 1.0)


class SelectiveMasker:
    """Draws per-epoch masks using the selective strategy (paper §4.1).

    The probabilities are computed once (static features do not change);
    each call to :meth:`draw` samples seed locations ``ρ_i ~ Bern(p_i)``
    and masks their sub-graphs.  A fallback guarantees at least one
    sub-graph is masked (training needs masked targets), and masking stops
    once δ_m of the locations are masked, so the realised ratio tracks it.
    """

    def __init__(
        self,
        similarity: SubgraphSimilarity,
        subgraph_adjacency: np.ndarray,
        mask_ratio: float,
        top_k: int,
    ) -> None:
        self.subgraph_adjacency = np.asarray(subgraph_adjacency)
        self.mask_ratio = mask_ratio
        self.probabilities = selective_masking_probabilities(
            similarity, mask_ratio, self.subgraph_adjacency, top_k
        )
        self._members = all_subgraphs(self.subgraph_adjacency)

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """Sample one mask; returns sorted local indices of masked locations."""
        n = len(self.probabilities)
        target = max(1, int(round(n * self.mask_ratio)))
        seeds = np.flatnonzero(rng.random(n) < self.probabilities)
        if len(seeds) == 0:
            # Fall back to the most similar sub-graph so training always
            # has masked locations to predict.
            seeds = np.array([int(np.argmax(self.probabilities))])
        order = rng.permutation(seeds)
        masked: set[int] = set()
        for seed in order:
            if len(masked) >= target:
                break
            masked.update(int(v) for v in self._members[int(seed)])
        return _cap_masked(masked, n, rng)
