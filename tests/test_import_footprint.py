"""Importing the package loads no library that only some run paths use.

The road graph is plain dicts with its own Dijkstra, and GE-GAN imports
``scipy.linalg`` inside ``spectral_embedding``.  So a process that
imports ``repro`` (a serving worker, a sweep worker, a CLI) pays for
neither scipy nor networkx until it runs code that needs them.  Each
probe runs in a fresh interpreter, where nothing else has imported them.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

pytestmark = pytest.mark.slow

#: Digests recorded before the road graph dropped networkx: the road
#: distances of the probe's dataset, and GE-GAN's spectral embedding of it.
ROAD_DISTANCES_SHA256 = "7efda3caa1310c66837ae5e327d703def7697b9e269c80be8c3e4b505dd1eac5"
EMBEDDING_SHA256 = "a18b8846a6def91ad520391cf168b59d43bae7c6c7012131cf32fddad0f81f06"

NETWORKX_BLOCKED = '''
import hashlib
import sys


class BlockNetworkx:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "networkx":
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockNetworkx())

import numpy as np

from repro.baselines import spectral_embedding
from repro.data.synthetic import make_pems_bay
from repro.graph import euclidean_distance_matrix, gaussian_kernel_adjacency

dataset = make_pems_bay(num_sensors=12, num_days=1, seed=0)
distances = dataset.road_network.shortest_path_distance_matrix(dataset.coords)
assert np.isfinite(distances).all()
assert "scipy" not in sys.modules
adjacency = gaussian_kernel_adjacency(euclidean_distance_matrix(dataset.coords), threshold=0.05)
embedding = spectral_embedding(adjacency, dim=4)
assert "scipy" in sys.modules
print(hashlib.sha256(distances.tobytes()).hexdigest())
print(hashlib.sha256(np.ascontiguousarray(embedding).tobytes()).hexdigest())
'''


def _run(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize(
    "module", ["repro", "repro.serving.transport.workers", "repro.experiments.runners"]
)
def test_import_loads_neither_scipy_nor_networkx(module):
    out = _run(
        f"import sys\nimport {module}\n"
        'print(sorted(m for m in ("scipy", "networkx") if m in sys.modules))'
    )
    assert out.strip() == "[]", f"importing {module} loaded {out.strip()}"


def test_road_distances_and_embedding_run_without_networkx():
    distances_sha, embedding_sha = _run(NETWORKX_BLOCKED).split()
    assert distances_sha == ROAD_DISTANCES_SHA256
    assert embedding_sha == EMBEDDING_SHA256
