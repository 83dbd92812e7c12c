"""Importing the backend makes glibc keep freed array memory for reuse.

Autograd allocates and frees 0.4-1.3 MB temporaries by the thousand per
training step.  Under glibc's defaults each one is mmapped, unmapped on
free, or trimmed off the heap top, so its pages fault in again on the
next allocation.  ``repro.backend.numpy_ref`` sets ``mallopt`` limits at
import so that they are reused instead.  The probe runs in a fresh
interpreter, where nothing else has touched the allocator, and again in
a ``spawn`` child, the way sweep workers start.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"


def _on_glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


pytestmark = [
    pytest.mark.slow,
    pytest.mark.skipif(not _on_glibc(), reason="mallopt tuning is glibc-only"),
]

PROBE = '''
import multiprocessing
import resource
import sys

import numpy as np

import repro.backend  # noqa: F401  (tunes the allocator at import)

ARRAYS, ELEMENTS, ROUNDS = 8, 162_500, 20  # eight 1.3 MB float64 arrays


def churn():
    held = []
    for _ in range(ARRAYS):
        array = np.empty(ELEMENTS)
        array.fill(1.0)  # touch every page
        held.append(array)
    del held


def faults_per_page(queue=None):
    churn()  # the first round faults its pages in once
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(ROUNDS):
        churn()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    share = faults / (ROUNDS * ARRAYS * ELEMENTS * 8 / resource.getpagesize())
    if queue is None:
        return share
    queue.put(share)


if __name__ == "__main__":
    if sys.argv[1] == "spawn":
        context = multiprocessing.get_context("spawn")
        queue = context.Queue()
        child = context.Process(target=faults_per_page, args=(queue,))
        child.start()
        share = queue.get(timeout=60)
        child.join(timeout=60)
    else:
        share = faults_per_page()
    print(share)
'''


@pytest.mark.parametrize("where", ["interpreter", "spawn"])
def test_freed_arrays_are_reused_without_page_faults(tmp_path, where):
    probe = tmp_path / "probe.py"
    probe.write_text(PROBE)
    path = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, str(probe), where],
        capture_output=True, text=True, env=env, timeout=120, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    share = float(done.stdout.split()[-1])
    # Under glibc's defaults every round faults each page in again (share ~1).
    assert share < 0.05, f"{share:.1%} of touched pages faulted"
