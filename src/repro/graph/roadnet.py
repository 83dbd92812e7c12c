"""Road-network representation and road-network distances.

Backs two parts of the reproduction:

* the synthetic city generator places sensors and POIs on this network and
  derives per-sensor road attributes (highway_level, maxspeed, oneway,
  lanes) that feed the selective-masking features (paper §4.1);
* the STSM-rd-a / STSM-rd-m variants (paper §5.2.6, Table 11) replace
  Euclidean distances with shortest-path road distances computed here.

The graph is two plain dicts and the distances one heapq Dijkstra, so no
graph library loads with the package.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import count

import numpy as np

__all__ = ["RoadSegmentAttributes", "RoadNetwork"]

#: Ordered highway levels, most to least important.  The integer level is
#: the index in this tuple (0 = motorway).
HIGHWAY_LEVELS = ("motorway", "trunk", "primary", "secondary", "residential")

#: Default speed limits (km/h) per highway level, used by the simulator.
DEFAULT_MAXSPEED = {
    "motorway": 110.0,
    "trunk": 100.0,
    "primary": 70.0,
    "secondary": 60.0,
    "residential": 40.0,
}


@dataclass
class RoadSegmentAttributes:
    """The 4-dimensional road feature vector of paper §4.1.

    ``l_road = [highway_level, maxspeed, is_oneway, lanes]``.
    """

    highway_level: int
    maxspeed: float
    is_oneway: bool
    lanes: int

    def as_vector(self) -> np.ndarray:
        """Return the 4-d numeric vector."""
        return np.array(
            [float(self.highway_level), self.maxspeed, float(self.is_oneway), float(self.lanes)]
        )


@dataclass
class RoadNetwork:
    """An undirected road graph with segment attributes and geometry.

    Attributes
    ----------
    positions:
        Node id -> planar ``(x, y)``, in insertion order.
    adjacency:
        Node id -> {neighbour id -> ``(length, RoadSegmentAttributes)``};
        each segment appears under both of its end nodes.
    """

    positions: dict = field(default_factory=dict)
    adjacency: dict = field(default_factory=dict)

    def add_intersection(self, node_id, position: tuple[float, float]) -> None:
        """Add an intersection node with planar coordinates."""
        self.positions[node_id] = (float(position[0]), float(position[1]))
        self.adjacency.setdefault(node_id, {})

    def add_segment(self, u, v, attributes: RoadSegmentAttributes) -> None:
        """Add a road segment; length is the Euclidean node distance."""
        pu = np.asarray(self.positions[u])
        pv = np.asarray(self.positions[v])
        length = float(np.linalg.norm(pu - pv))
        self.adjacency[u][v] = self.adjacency[v][u] = (length, attributes)

    def nearest_node(self, point: tuple[float, float]):
        """Return the node id closest to ``point`` in Euclidean distance."""
        if not self.positions:
            raise ValueError("road network has no nodes")
        deltas = np.array(list(self.positions.values())) - np.asarray(point, dtype=float)
        index = int(np.argmin((deltas ** 2).sum(axis=1)))
        return list(self.positions)[index]

    def nearest_segment_attributes(self, point: tuple[float, float]) -> RoadSegmentAttributes:
        """Attributes of the road segment nearest to ``point``.

        The paper selects "the nearest road of the location" to build the
        4-d road vector; here we take the best-attributed edge incident to
        the nearest intersection (segments are short in the synthetic city,
        so this matches point-to-segment search to within a block).
        """
        node = self.nearest_node(point)
        segments = [attrs for _length, attrs in self.adjacency[node].values()]
        if not segments:
            raise ValueError(f"node {node} has no incident road segments")
        # Prefer the most important road touching this intersection.
        return min(segments, key=lambda attrs: attrs.highway_level)

    def shortest_path_distance_matrix(self, points: np.ndarray) -> np.ndarray:
        """Road-network distances between all pairs of ``points``.

        Each point snaps to its nearest intersection; distances are
        shortest-path sums of segment lengths (Dijkstra).  Disconnected
        pairs get ``inf``.
        """
        points = np.asarray(points, dtype=float)
        snapped = [self.nearest_node(tuple(p)) for p in points]
        lengths = {source: self._dijkstra(source) for source in set(snapped)}
        rows = [[lengths[s].get(t, np.inf) for t in snapped] for s in snapped]
        out = np.array(rows, dtype=float).reshape(len(points), len(points))
        np.fill_diagonal(out, 0.0)
        return out

    def _dijkstra(self, source) -> dict:
        """Shortest-path length from ``source`` to every reachable node.

        Mirrors networkx's ``_dijkstra_multisource`` push for push, so
        the lengths match it bit for bit."""
        dist: dict = {}
        seen = {source: 0}
        tie = count()
        fringe = [(0, next(tie), source)]
        while fringe:
            d, _, v = heapq.heappop(fringe)
            if v in dist:
                continue
            dist[v] = d
            for u, (length, _attrs) in self.adjacency[v].items():
                vu = d + length
                if u not in dist and (u not in seen or vu < seen[u]):
                    seen[u] = vu
                    heapq.heappush(fringe, (vu, next(tie), u))
        return dist
