"""Space and time splitting (paper §5.1.1, §5.2.4)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import SpaceSplit, space_split, temporal_split


@pytest.fixture
def coords():
    return np.random.default_rng(0).uniform(0, 100, size=(40, 2))


class TestSpaceSplit:
    def test_partition(self, coords):
        split = space_split(coords, "horizontal")
        split.validate(len(coords))

    def test_fractions(self, coords):
        split = space_split(coords, "horizontal")
        assert len(split.train) == 16  # 0.4 * 40
        assert len(split.validation) == 4
        assert len(split.test) == 20

    def test_horizontal_orders_by_y(self, coords):
        split = space_split(coords, "horizontal")
        assert coords[split.train, 1].max() <= coords[split.test, 1].min() + 1e-9

    def test_flip_reverses(self, coords):
        split = space_split(coords, "horizontal_flip")
        assert coords[split.train, 1].min() >= coords[split.test, 1].max() - 1e-9

    def test_vertical_orders_by_x(self, coords):
        split = space_split(coords, "vertical")
        assert coords[split.train, 0].max() <= coords[split.test, 0].min() + 1e-9

    def test_ring_centre_is_train(self, coords):
        split = space_split(coords, "ring")
        centre = coords.mean(axis=0)
        train_r = np.linalg.norm(coords[split.train] - centre, axis=1).max()
        test_r = np.linalg.norm(coords[split.test] - centre, axis=1).min()
        assert train_r <= test_r + 1e-9

    def test_observed_is_train_plus_validation(self, coords):
        split = space_split(coords, "vertical")
        assert set(split.observed) == set(split.train) | set(split.validation)
        assert set(split.unobserved) == set(split.test)

    def test_unknown_kind_rejected(self, coords):
        with pytest.raises(ValueError):
            space_split(coords, "diagonal")

    def test_bad_fractions_rejected(self, coords):
        with pytest.raises(ValueError):
            space_split(coords, "horizontal", fractions=(0.5, 0.2, 0.2))

    def test_bad_coords_rejected(self):
        with pytest.raises(ValueError):
            space_split(np.zeros(5), "horizontal")

    def test_validate_catches_overlap(self):
        bad = SpaceSplit(np.array([0, 1]), np.array([1]), np.array([2]), "bad")
        with pytest.raises(ValueError):
            bad.validate(4)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=10, max_value=60), st.integers(min_value=0, max_value=100))
    def test_partition_property(self, n, seed):
        coords = np.random.default_rng(seed).uniform(size=(n, 2))
        for kind in ("horizontal", "vertical", "ring"):
            split = space_split(coords, kind)
            split.validate(n)
            # The paper's 4:1:5 proportions hold to rounding.
            assert abs(len(split.train) / n - 0.4) < 0.1
            assert abs(len(split.test) / n - 0.5) < 0.1


class TestTemporalSplit:
    def test_70_30(self):
        train, test = temporal_split(100)
        assert len(train) == 70 and len(test) == 30
        assert train[-1] + 1 == test[0]

    def test_contiguous_and_complete(self):
        train, test = temporal_split(53, 0.6)
        joined = np.concatenate([train, test])
        assert np.array_equal(joined, np.arange(53))

    def test_bounds(self):
        train, test = temporal_split(2, 0.99)
        assert len(train) == 1 and len(test) == 1

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            temporal_split(10, 0.0)
        with pytest.raises(ValueError):
            temporal_split(10, 1.0)


class TestProgressiveSplits:
    def _splits(self, coords, **kwargs):
        from repro.data import progressive_splits

        return progressive_splits(coords, "horizontal", **kwargs)

    def test_every_stage_is_a_partition(self, coords):
        splits, _core = self._splits(coords)
        for split in splits:
            split.validate(len(coords))

    def test_core_never_observed(self, coords):
        splits, core = self._splits(coords)
        for split in splits:
            assert np.intersect1d(split.observed, core).size == 0
            assert np.all(np.isin(core, split.unobserved))

    def test_observed_count_grows_with_stage(self, coords):
        splits, _core = self._splits(coords, stages=(0.0, 0.5, 1.0))
        counts = [len(split.observed) for split in splits]
        assert counts == sorted(counts)
        assert counts[0] < counts[-1]

    def test_stage_zero_matches_base_fraction(self, coords):
        splits, _core = self._splits(coords, base_fraction=0.5, stages=(0.0,))
        assert len(splits[0].observed) == 20  # 0.5 * 40

    def test_full_stage_leaves_only_core(self, coords):
        splits, core = self._splits(coords, stages=(1.0,))
        assert np.array_equal(splits[0].unobserved, core)

    def test_deployment_follows_sweep_order(self, coords):
        """Newly deployed sensors are closer to the base than the core."""
        splits, core = self._splits(coords, stages=(0.0, 0.5))
        newly = np.setdiff1d(splits[1].observed, splits[0].observed)
        assert newly.size > 0
        assert coords[newly, 1].max() < coords[core, 1].min()

    def test_rejects_bad_fractions(self, coords):
        with pytest.raises(ValueError, match="corridor"):
            self._splits(coords, base_fraction=0.8, core_fraction=0.3)
        with pytest.raises(ValueError, match="in \\(0, 1\\)"):
            self._splits(coords, base_fraction=0.0)

    def test_rejects_bad_stage(self, coords):
        with pytest.raises(ValueError, match="stage"):
            self._splits(coords, stages=(0.0, 1.5))

    def test_validation_nonempty_every_stage(self, coords):
        splits, _core = self._splits(coords, stages=(0.0, 0.25, 0.75, 1.0))
        for split in splits:
            assert len(split.validation) >= 1
            assert len(split.train) >= 1
