"""Synthetic city / highway-corridor generation.

Produces the geometric substrate the paper obtains from OpenStreetMap and
CalTrans: a road network, sensor locations on that network, per-sensor road
attributes, and a land-use field that drives the POI generator.  Two modes:

* ``highway`` — a handful of long motorway corridors crossing a large
  region (PEMS-like sensor layouts);
* ``urban`` — a dense street grid with arterials (Melbourne-like layouts).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...graph.roadnet import DEFAULT_MAXSPEED, HIGHWAY_LEVELS, RoadNetwork, RoadSegmentAttributes
from .poi import LAND_USES, sample_poi_counts, sample_scale

__all__ = ["CityLayout", "generate_highway_city", "generate_urban_city", "land_use_mixture"]


@dataclass
class CityLayout:
    """The generated geometric substrate.

    Attributes
    ----------
    sensor_coords:
        ``(N, 2)`` sensor positions in metres.
    road_network:
        The :class:`RoadNetwork` the sensors sit on.
    road_features:
        ``(N, 4)`` road attribute vectors (highway_level, maxspeed,
        is_oneway, lanes) of each sensor's segment.
    land_use:
        ``(N, 5)`` land-use mixture per sensor (columns follow
        :data:`~repro.data.synthetic.poi.LAND_USES`).
    poi_counts:
        ``(N, 26)`` sampled POI category counts.
    scale:
        ``(N,)`` prosperity scalar.
    centres:
        ``(K, 2)`` activity-centre positions (used by the simulators).
    """

    sensor_coords: np.ndarray
    road_network: RoadNetwork
    road_features: np.ndarray
    land_use: np.ndarray
    poi_counts: np.ndarray
    scale: np.ndarray
    centres: np.ndarray


def land_use_mixture(coords: np.ndarray, centres: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Soft land-use mixture from distances to typed activity centres.

    Each centre is assigned one land use (cycled through
    commercial/residential/industrial/recreational); weight decays with a
    Gaussian kernel of the distance, and a floor of "rural" weight keeps
    far-away locations rural.
    """
    coords = np.asarray(coords, dtype=float)
    centres = np.asarray(centres, dtype=float)
    num_uses = len(LAND_USES)
    mixture = np.zeros((len(coords), num_uses))
    if len(centres):
        spread = max(np.ptp(coords[:, 0]), np.ptp(coords[:, 1]), 1.0) / 4.0
        for k, centre in enumerate(centres):
            use = k % (num_uses - 1)  # cycle over non-rural uses
            dist = np.linalg.norm(coords - centre, axis=1)
            mixture[:, use] += np.exp(-((dist / spread) ** 2))
    mixture[:, -1] = 0.15  # rural floor
    mixture += rng.uniform(0.0, 0.05, size=mixture.shape)
    return mixture / mixture.sum(axis=1, keepdims=True)


def _corridor_points(
    rng: np.random.Generator, extent: float, num_points: int
) -> np.ndarray:
    """A gently-curved polyline crossing the square region ``[0, extent]^2``."""
    angle = rng.uniform(0.0, np.pi)
    direction = np.array([np.cos(angle), np.sin(angle)])
    normal = np.array([-direction[1], direction[0]])
    anchor = rng.uniform(0.25 * extent, 0.75 * extent, size=2)
    offsets = np.linspace(-0.75 * extent, 0.75 * extent, num_points)
    curvature = rng.uniform(-0.08, 0.08) * extent
    wiggle = curvature * np.sin(np.linspace(0.0, np.pi, num_points))
    pts = anchor + offsets[:, None] * direction + wiggle[:, None] * normal
    return np.clip(pts, 0.0, extent)


def generate_highway_city(
    num_sensors: int,
    rng: np.random.Generator,
    extent: float = 40_000.0,
    num_corridors: int | None = None,
    poi_radius: float = 500.0,
) -> CityLayout:
    """Generate motorway corridors with sensors (PEMS-like layout)."""
    if num_sensors < 2:
        raise ValueError("need at least 2 sensors")
    num_corridors = num_corridors if num_corridors is not None else max(3, num_sensors // 40)
    per_corridor = np.full(num_corridors, num_sensors // num_corridors)
    per_corridor[: num_sensors % num_corridors] += 1

    network = RoadNetwork()
    sensor_coords: list[np.ndarray] = []
    road_features: list[np.ndarray] = []
    node_id = 0
    corridor_first_nodes: list[int] = []
    for c, count in enumerate(per_corridor):
        pts = _corridor_points(rng, extent, int(count))
        # Corridors mix freeway classes (motorway / trunk) like real PEMS
        # deployments, but with PEMS-realistic speed-limit spreads: all
        # freeway-class roads sit in a narrow band (~60-70 mph), so
        # cross-corridor interpolation is not systematically biased.
        level_name = "motorway" if c % 3 != 2 else "trunk"
        level = HIGHWAY_LEVELS.index(level_name)
        lanes = int(rng.integers(3, 6)) if level_name == "motorway" else int(rng.integers(2, 4))
        attrs = RoadSegmentAttributes(
            highway_level=level,
            maxspeed=DEFAULT_MAXSPEED[level_name],
            is_oneway=False,
            lanes=lanes,
        )
        corridor_first_nodes.append(node_id)
        previous = None
        for p in pts:
            network.add_intersection(node_id, (p[0], p[1]))
            if previous is not None:
                network.add_segment(previous, node_id, attrs)
            sensor_coords.append(p + rng.normal(0.0, 30.0, size=2))
            road_features.append(attrs.as_vector())
            previous = node_id
            node_id += 1
    # Join corridors so the network is connected (motorway interchanges).
    for first in corridor_first_nodes[1:]:
        attrs = RoadSegmentAttributes(
            highway_level=HIGHWAY_LEVELS.index("primary"),
            maxspeed=DEFAULT_MAXSPEED["primary"],
            is_oneway=False,
            lanes=2,
        )
        # Connect this corridor's head to the nearest node of earlier corridors.
        head_pos = network.positions[first]
        earlier = [n for n in network.positions if n < first]
        nearest = min(
            earlier,
            key=lambda n: np.linalg.norm(np.asarray(network.positions[n]) - head_pos),
        )
        network.add_segment(first, nearest, attrs)

    coords = np.asarray(sensor_coords)
    num_centres = max(2, num_sensors // 100)
    centres = rng.uniform(0.2 * extent, 0.8 * extent, size=(num_centres, 2))
    mixture = land_use_mixture(coords, centres, rng)
    # Highway surroundings skew rural between activity centres.
    mixture[:, -1] += 0.3
    mixture /= mixture.sum(axis=1, keepdims=True)
    return CityLayout(
        sensor_coords=coords,
        road_network=network,
        road_features=np.asarray(road_features),
        land_use=mixture,
        poi_counts=sample_poi_counts(mixture, rng, radius=poi_radius),
        scale=sample_scale(mixture, rng),
        centres=centres,
    )


def generate_urban_city(
    num_sensors: int,
    rng: np.random.Generator,
    extent: float = 8_000.0,
    block: float = 400.0,
    poi_radius: float = 200.0,
) -> CityLayout:
    """Generate a street grid with arterials and sensors at intersections."""
    if num_sensors < 2:
        raise ValueError("need at least 2 sensors")
    cells = max(3, int(extent / block))
    network = RoadNetwork()
    node_ids = {}
    for ix in range(cells):
        for iy in range(cells):
            nid = ix * cells + iy
            node_ids[(ix, iy)] = nid
            network.add_intersection(nid, (ix * block, iy * block))
    arterial_every = 4

    def _segment_attrs(is_arterial: bool) -> RoadSegmentAttributes:
        if is_arterial:
            return RoadSegmentAttributes(
                highway_level=HIGHWAY_LEVELS.index("primary"),
                maxspeed=DEFAULT_MAXSPEED["primary"],
                is_oneway=False,
                lanes=3,
            )
        level_name = "secondary" if rng.random() < 0.4 else "residential"
        return RoadSegmentAttributes(
            highway_level=HIGHWAY_LEVELS.index(level_name),
            maxspeed=DEFAULT_MAXSPEED[level_name],
            is_oneway=bool(rng.random() < 0.25),
            lanes=int(rng.integers(1, 3)),
        )

    for ix in range(cells):
        for iy in range(cells):
            if ix + 1 < cells:
                network.add_segment(
                    node_ids[(ix, iy)],
                    node_ids[(ix + 1, iy)],
                    _segment_attrs(iy % arterial_every == 0),
                )
            if iy + 1 < cells:
                network.add_segment(
                    node_ids[(ix, iy)],
                    node_ids[(ix, iy + 1)],
                    _segment_attrs(ix % arterial_every == 0),
                )

    chosen = rng.choice(cells * cells, size=num_sensors, replace=num_sensors > cells * cells)
    coords = []
    road_features = []
    for nid in chosen:
        pos = np.asarray(network.positions[int(nid)], dtype=float)
        coords.append(pos + rng.normal(0.0, block * 0.1, size=2))
        attrs = network.nearest_segment_attributes(tuple(pos))
        road_features.append(attrs.as_vector())
    coords = np.asarray(coords)
    num_centres = max(2, num_sensors // 50)
    centres = rng.uniform(0.2 * extent, 0.8 * extent, size=(num_centres, 2))
    mixture = land_use_mixture(coords, centres, rng)
    return CityLayout(
        sensor_coords=coords,
        road_network=network,
        road_features=np.asarray(road_features),
        land_use=mixture,
        poi_counts=sample_poi_counts(mixture, rng, radius=poi_radius),
        scale=sample_scale(mixture, rng),
        centres=centres,
    )
