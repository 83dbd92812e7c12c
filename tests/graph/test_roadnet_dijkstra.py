"""Road distances are bitwise equal to networkx's Dijkstra.

``RoadNetwork`` runs its own Dijkstra over plain dicts.  Paths of equal
length can sum to different floats, and integer-grid graphs with
diagonal segments have many of them, so the oracle test draws such
graphs and compares bytes, not values within a tolerance.
"""

from __future__ import annotations

import hashlib
import itertools

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.synthetic.city import generate_highway_city, generate_urban_city
from repro.graph import RoadNetwork, RoadSegmentAttributes

ATTRS = RoadSegmentAttributes(highway_level=3, maxspeed=60.0, is_oneway=False, lanes=1)

#: sha256 over sensor coords, road features and road distances, recorded
#: while ``RoadNetwork`` still ran networkx.
HIGHWAY_SHA256 = "3dd735f66f07a0a35fa9c2a672abebe73620d96bc10a810b0f45597be761833e"
URBAN_SHA256 = "d5a908963633037811a0cc00de958e89da1d485561eca65dcff901b32c556ad6"


@st.composite
def grid_roads(draw):
    """Integer grid points and a random subset of short segments between them.

    Nodes come in a drawn order, and segments in a drawn order and
    direction; dropped segments leave some parts disconnected.
    """
    width, height = draw(st.integers(1, 6)), draw(st.integers(2, 6))
    spacing = draw(st.sampled_from([1, 3, 100]))
    cells = draw(st.permutations([(x, y) for x in range(width) for y in range(height)]))
    positions = [(float(x * spacing), float(y * spacing)) for x, y in cells]
    candidates = [
        (a, b)
        for a, b in itertools.combinations(range(len(cells)), 2)
        if (cells[a][0] - cells[b][0]) ** 2 + (cells[a][1] - cells[b][1]) ** 2 <= 5
    ]
    keep = draw(st.lists(st.booleans(), min_size=len(candidates), max_size=len(candidates)))
    segments = draw(st.permutations([c for c, k in zip(candidates, keep) if k]))
    flips = draw(st.lists(st.booleans(), min_size=len(segments), max_size=len(segments)))
    return positions, [(b, a) if flip else (a, b) for (a, b), flip in zip(segments, flips)]


def networkx_distance_matrix(positions, segments, points: np.ndarray) -> np.ndarray:
    """Road distances from an ``nx.Graph`` built in the same order."""
    graph = nx.Graph()
    for node, position in enumerate(positions):
        graph.add_node(node, pos=position)
    for u, v in segments:
        length = float(np.linalg.norm(np.asarray(positions[u]) - np.asarray(positions[v])))
        graph.add_edge(u, v, length=length)
    coords = np.array(positions, dtype=float)
    snapped = [int(np.argmin(((coords - p) ** 2).sum(axis=1))) for p in points]
    out = np.full((len(points), len(points)), np.inf)
    for i, source in enumerate(snapped):
        row = nx.single_source_dijkstra_path_length(graph, source, weight="length")
        for j, target in enumerate(snapped):
            out[i, j] = row.get(target, np.inf)
    np.fill_diagonal(out, 0.0)
    return out


@settings(max_examples=80, deadline=None)
@given(grid_roads())
def test_distances_bitwise_equal_networkx(roads):
    positions, segments = roads
    net = RoadNetwork()
    for node, position in enumerate(positions):
        net.add_intersection(node, position)
    for u, v in segments:
        net.add_segment(u, v, ATTRS)
    points = np.array(positions, dtype=float)
    ours = net.shortest_path_distance_matrix(points)
    assert ours.tobytes() == networkx_distance_matrix(positions, segments, points).tobytes()


def _layout_sha(layout) -> str:
    digest = hashlib.sha256()
    distances = layout.road_network.shortest_path_distance_matrix(layout.sensor_coords)
    for array in (layout.sensor_coords, layout.road_features, distances):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def test_seeded_highway_city_digest():
    assert _layout_sha(generate_highway_city(60, np.random.default_rng(11))) == HIGHWAY_SHA256


def test_seeded_urban_city_digest():
    assert _layout_sha(generate_urban_city(50, np.random.default_rng(12))) == URBAN_SHA256
