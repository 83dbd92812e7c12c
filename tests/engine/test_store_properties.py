"""Generated put / get / persist / refresh / gc / reopen interleavings
over two :class:`ArtifactStore` handles sharing one disk directory.

Every value is a pure function of its key (content addressing), so a
dict-free model suffices: any hit, from either tier of either handle,
must be bitwise the value the key names.  Checked after every step:

* every hit is bitwise equal to the model value;
* after ``gc(target)``, ``disk_usage() <= target``;
* ``stats`` ``disk_items`` equals the number of indexed entries;
* no persisted key goes missing unless a gc with a byte target has run
  since it was persisted;
* after a refresh, ``disk_usage()`` equals the bytes of the segment
  files in the directory.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.engine import ArtifactStore, array_key

#: One scalar and one array namespace; few keys, so handles duplicate
#: each other's entries and segments go sparse.
NAMESPACES = ("dtw_pair", "mask_fill")
NUM_KEYS = 6


def _key(index: int) -> bytes:
    return array_key("store-properties", index)


def _value(namespace: str, index: int):
    if namespace == "dtw_pair":
        return float(np.float64(index) / 7.0 + 0.1)
    value = np.random.default_rng(index).standard_normal((index % 3 + 1, 16))
    value[0, 0] = np.nan  # NaN payload bits must survive the disk tier
    return value


def _bitwise_equal(got, expected) -> bool:
    if isinstance(expected, float):
        return isinstance(got, float) and (
            np.float64(got).tobytes() == np.float64(expected).tobytes()
        )
    return (
        isinstance(got, np.ndarray)
        and got.dtype == expected.dtype
        and got.shape == expected.shape
        and got.tobytes() == expected.tobytes()
    )


handles = st.integers(min_value=0, max_value=1)
entries = st.tuples(st.sampled_from(NAMESPACES), st.integers(0, NUM_KEYS - 1))


class TwoHandleStoreMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.directory = Path(tempfile.mkdtemp(prefix="store-properties-"))
        self.stores = [ArtifactStore(disk_dir=self.directory) for _ in range(2)]
        # Entries put since each handle's last persist, and entries that
        # must be on disk: persisted since the last gc with a byte target.
        self.pending: list[set] = [set(), set()]
        self.persisted: set = set()

    @rule(handle=handles, entry=entries)
    def put(self, handle, entry):
        namespace, index = entry
        self.stores[handle].put(namespace, _key(index), _value(namespace, index))
        self.pending[handle].add(entry)

    @rule(handle=handles, entry=entries)
    def get(self, handle, entry):
        namespace, index = entry
        got = self.stores[handle].get(namespace, _key(index))
        if got is not None:
            assert _bitwise_equal(got, _value(namespace, index))

    @rule(handle=handles)
    def persist(self, handle):
        self.stores[handle].persist()
        self.persisted |= self.pending[handle]
        self.pending[handle].clear()

    @rule(handle=handles)
    def refresh(self, handle):
        store = self.stores[handle]
        store.refresh_disk_index()
        on_disk = sum(path.stat().st_size for path in self.directory.glob("seg-*.npz"))
        assert store.disk_usage() == on_disk

    @rule(handle=handles, fraction=st.none() | st.sampled_from([0.0, 0.3, 0.6, 0.9]))
    def gc(self, handle, fraction):
        store = self.stores[handle]
        target = None if fraction is None else int(store.disk_usage() * fraction)
        store.gc(target_bytes=target)
        if target is not None:
            assert store.disk_usage() <= target
            self.persisted.clear()

    @rule(handle=handles)
    def clear_memory(self, handle):
        self.stores[handle].clear_memory()

    @rule(handle=handles)
    def reopen(self, handle):
        self.stores[handle] = ArtifactStore(disk_dir=self.directory)
        self.pending[handle].clear()  # unpersisted puts die with the handle

    @invariant()
    def disk_items_count_the_index(self):
        for store in self.stores:
            assert store.stats["totals"]["disk_items"] == len(store._disk_index)

    @invariant()
    def persisted_keys_stay_on_disk(self):
        fresh = ArtifactStore(disk_dir=self.directory, read_only=True)
        for namespace, index in self.persisted:
            got = fresh.get(namespace, _key(index))
            assert got is not None, (namespace, index)
            assert _bitwise_equal(got, _value(namespace, index))

    def teardown(self):
        shutil.rmtree(self.directory, ignore_errors=True)


TwoHandleStoreMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
TestTwoHandleStore = TwoHandleStoreMachine.TestCase
