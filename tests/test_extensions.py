"""Extension features: scattered splits, GRU temporal module, and the
missingness experiment machinery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import STSMConfig, make_stsm
from repro.data import WindowSpec, scattered_split, space_split, temporal_split
from repro.evaluation import forecast_window_starts


@pytest.fixture(scope="module")
def traffic():
    from repro.data.synthetic import make_pems_bay

    return make_pems_bay(num_sensors=24, num_days=3, seed=41)


class TestScatteredSplit:
    def test_partition(self, traffic):
        split = scattered_split(traffic.coords)
        split.validate(traffic.num_locations)
        assert split.name == "scattered"

    def test_scattered_is_interleaved(self, traffic):
        """Unobserved locations should be spread over the whole extent."""
        split = scattered_split(traffic.coords, rng=np.random.default_rng(1))
        contiguous = space_split(traffic.coords, "horizontal")
        y = traffic.coords[:, 1]
        scattered_spread = np.ptp(y[split.unobserved])
        contiguous_spread = np.ptp(y[contiguous.unobserved])
        assert scattered_spread > contiguous_spread

    def test_scattered_neighbours_closer(self, traffic):
        """Under scattering, unobserved locations have closer observed
        neighbours than under a contiguous split — the premise of the
        paper's motivation."""
        from repro.graph import euclidean_distance_matrix

        distances = euclidean_distance_matrix(traffic.coords)

        def mean_nearest(split):
            block = distances[np.ix_(split.unobserved, split.observed)]
            return block.min(axis=1).mean()

        scattered = scattered_split(traffic.coords, rng=np.random.default_rng(2))
        contiguous = space_split(traffic.coords, "horizontal")
        assert mean_nearest(scattered) < mean_nearest(contiguous)

    def test_deterministic_with_rng(self, traffic):
        a = scattered_split(traffic.coords, rng=np.random.default_rng(5))
        b = scattered_split(traffic.coords, rng=np.random.default_rng(5))
        assert np.array_equal(a.test, b.test)


class TestGRUTemporalVariant:
    def test_trains_end_to_end(self, traffic):
        split = space_split(traffic.coords, "horizontal")
        spec = WindowSpec(8, 8)
        model = make_stsm(
            config=STSMConfig(hidden_dim=8, num_blocks=1, gcn_depth=1, epochs=2,
                              patience=2, batch_size=8, window_stride=8, top_k=5,
                              temporal_module="gru")
        )
        train_ix, _ = temporal_split(traffic.num_steps)
        report = model.fit(traffic, split, spec, train_ix)
        assert report.epochs >= 1
        starts = forecast_window_starts(traffic, spec, max_windows=2)
        assert model.predict(starts).shape == (2, 8, len(split.unobserved))
