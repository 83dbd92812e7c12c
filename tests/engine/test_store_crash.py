"""Crash consistency: SIGKILL a writer mid-round, then reopen the store.

A subprocess loops store rounds and prints each round's keys (flushed)
once the round returns — an acknowledgement.  The parent kills it at a
seeded random delay, reopens the directory and requires every
acknowledged key to be a bitwise hit, with no corrupt segment and no
"unreadable" warning.  ``.tmp`` stragglers may remain; the store
ignores them.  Two variants:

* ``persist`` — each round puts fresh keys and calls ``persist()``;
* ``dedup_gc`` — each round a new writer handle persists fresh keys
  plus most of the previous round's (so that round's segment goes
  sparse), and a long-lived handle refreshes and runs ``gc()``, which
  compacts the sparse segment.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import textwrap
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.engine import ArtifactStore, array_key

pytestmark = [
    pytest.mark.slow,
    pytest.mark.skipif(os.name != "posix", reason="needs POSIX SIGKILL"),
]

KILLS_PER_VARIANT = 5
KEYS_PER_ROUND = 4
#: Each killed run writes keys from its own range, so acknowledgements
#: from earlier runs stay checkable after later ones.
RUN_KEY_STRIDE = 1_000_000

_WRITER = textwrap.dedent(
    """
    import sys

    import numpy as np

    from repro.engine import ArtifactStore, array_key

    variant, directory, offset = sys.argv[1], sys.argv[2], int(sys.argv[3])

    def entry(index):
        if index % 2:
            return "dtw_pair", array_key("crash", index), float(index) / 3.0
        value = np.random.default_rng(index).standard_normal((8, 8))
        return "mask_fill", array_key("crash", index), value

    collector = ArtifactStore(disk_dir=directory)
    round_ = 0
    while True:
        fresh = range(offset + round_ * {per}, offset + (round_ + 1) * {per})
        if variant == "persist":
            for index in fresh:
                collector.put(*entry(index))
            collector.persist()
        else:
            writer = ArtifactStore(disk_dir=directory)
            previous = range(max(offset, fresh.start - {per}), fresh.start - 1)
            for index in [*fresh, *previous]:
                writer.put(*entry(index))
            writer.persist()
            collector.refresh_disk_index()
            collector.gc()
        print(" ".join(str(index) for index in fresh), flush=True)
        round_ += 1
    """
).format(per=KEYS_PER_ROUND)


def _expected(index: int):
    if index % 2:
        return "dtw_pair", array_key("crash", index), float(index) / 3.0
    value = np.random.default_rng(index).standard_normal((8, 8))
    return "mask_fill", array_key("crash", index), value


def _run_and_kill(variant: str, directory: Path, offset: int, delay: float) -> list[int]:
    """Start a writer, SIGKILL it ``delay`` s after its first ack; return acks."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-c", _WRITER, variant, str(directory), str(offset)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    lines: list[str] = []
    first = threading.Event()

    def read():
        for line in proc.stdout:
            lines.append(line)
            first.set()

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        assert first.wait(timeout=60.0), proc.stderr.read() if proc.poll() is not None else ""
        threading.Event().wait(delay)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30.0)
        reader.join(timeout=30.0)
    assert not reader.is_alive()
    assert proc.returncode == -signal.SIGKILL, proc.stderr.read()
    # A line without its newline was cut mid-write: not acknowledged.
    return [int(tok) for line in lines if line.endswith("\n") for tok in line.split()]


@pytest.mark.parametrize("variant", ["persist", "dedup_gc"])
def test_acknowledged_keys_survive_sigkill(variant, tmp_path):
    rng = random.Random(f"store-crash-{variant}")
    acknowledged: list[int] = []
    for run in range(KILLS_PER_VARIANT):
        delay = rng.uniform(0.0, 0.4)
        acknowledged += _run_and_kill(variant, tmp_path, run * RUN_KEY_STRIDE, delay)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            store = ArtifactStore(disk_dir=tmp_path)
            for index in acknowledged:
                namespace, key, value = _expected(index)
                got = store.get(namespace, key)
                assert got is not None, f"acknowledged key {index} lost (run {run})"
                if isinstance(value, float):
                    assert np.float64(got).tobytes() == np.float64(value).tobytes()
                else:
                    assert got.tobytes() == value.tobytes()
        assert store.corrupt_segments == 0
        assert not [w for w in caught if "unreadable" in str(w.message)]
    assert acknowledged, "no round was ever acknowledged"
