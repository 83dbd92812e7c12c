"""Synthetic data generators: structure, realism properties, presets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import LocationFeatures, SpatioTemporalDataset
from repro.data.synthetic import (
    DATASET_MAKERS,
    LAND_USES,
    NUM_POI_CATEGORIES,
    POI_CATEGORIES,
    diurnal_demand,
    generate_highway_city,
    generate_urban_city,
    land_use_mixture,
    make_dataset,
    poi_intensity,
    sample_poi_counts,
    simulate_pm25,
)


class TestPOI:
    def test_26_categories(self):
        assert NUM_POI_CATEGORIES == 26
        assert len(POI_CATEGORIES) == 26

    def test_intensity_shape_and_nonneg(self):
        rng = np.random.default_rng(0)
        mixture = rng.dirichlet(np.ones(len(LAND_USES)), size=10)
        intensity = poi_intensity(mixture)
        assert intensity.shape == (10, 26)
        assert np.all(intensity >= 0)

    def test_commercial_has_more_offices_than_rural(self):
        commercial = np.zeros((1, 5)); commercial[0, 0] = 1.0
        rural = np.zeros((1, 5)); rural[0, 4] = 1.0
        office_idx = POI_CATEGORIES.index("office")
        assert poi_intensity(commercial)[0, office_idx] > poi_intensity(rural)[0, office_idx]

    def test_radius_scales_area(self):
        mixture = np.ones((1, 5)) / 5
        small = poi_intensity(mixture, radius=250.0)
        large = poi_intensity(mixture, radius=500.0)
        assert np.allclose(large, small * 4.0)

    def test_counts_are_integers(self):
        rng = np.random.default_rng(1)
        mixture = rng.dirichlet(np.ones(5), size=4)
        counts = sample_poi_counts(mixture, rng)
        assert np.allclose(counts, counts.round())

    def test_bad_mixture_shape_rejected(self):
        with pytest.raises(ValueError):
            poi_intensity(np.ones((3, 4)))


class TestCityGeneration:
    def test_highway_layout_fields(self):
        rng = np.random.default_rng(2)
        layout = generate_highway_city(30, rng)
        assert layout.sensor_coords.shape == (30, 2)
        assert layout.road_features.shape == (30, 4)
        assert layout.poi_counts.shape == (30, 26)
        assert layout.land_use.shape == (30, 5)
        assert np.allclose(layout.land_use.sum(axis=1), 1.0)

    def test_highway_network_connected(self):
        rng = np.random.default_rng(3)
        layout = generate_highway_city(40, rng)
        distances = layout.road_network.shortest_path_distance_matrix(layout.sensor_coords)
        assert np.isfinite(distances).all()

    def test_urban_layout_fields(self):
        rng = np.random.default_rng(4)
        layout = generate_urban_city(25, rng)
        assert layout.sensor_coords.shape == (25, 2)
        assert np.all(layout.road_features[:, 1] > 0)  # positive speed limits

    def test_too_few_sensors_rejected(self):
        with pytest.raises(ValueError):
            generate_highway_city(1, np.random.default_rng(0))

    def test_land_use_mixture_rows_normalised(self):
        rng = np.random.default_rng(5)
        coords = rng.uniform(0, 100, size=(10, 2))
        centres = rng.uniform(0, 100, size=(3, 2))
        mixture = land_use_mixture(coords, centres, rng)
        assert np.allclose(mixture.sum(axis=1), 1.0)
        assert np.all(mixture >= 0)


class TestTrafficSimulation:
    def test_demand_peaks_on_weekdays(self):
        n = 4
        demand = diurnal_demand(24, 7, np.ones(n), np.ones(n))
        weekday = demand[:24]
        # 8am (index 8) should beat 3am (index 3) on a weekday.
        assert weekday[8].mean() > weekday[3].mean()

    def test_weekend_flatter_than_weekday(self):
        demand = diurnal_demand(24, 7, np.full(3, 1.5), np.full(3, 1.5))
        weekday_peak = demand[:24].max()
        weekend_peak = demand[5 * 24 : 6 * 24].max()
        assert weekend_peak < weekday_peak

    def test_peak_hours_shift_with_parameters(self):
        demand = diurnal_demand(
            48, 1, np.ones(2), np.ones(2),
            am_hour=np.array([6.0, 10.0]), pm_hour=np.array([17.0, 17.0]),
        )
        early_peak = demand[: 24, 0].argmax()
        late_peak = demand[: 24, 1].argmax()
        assert early_peak < late_peak

    def test_speeds_bounded_by_road_class(self, tiny_traffic):
        values = tiny_traffic.values
        maxspeed = tiny_traffic.features.road[:, 1]
        assert np.all(values <= maxspeed[None, :] * 1.05 + 1e-9)
        assert values.min() >= 2.0

    def test_diurnal_autocorrelation(self, tiny_traffic):
        """Speeds one day apart should correlate strongly (periodicity)."""
        spd = tiny_traffic.steps_per_day
        values = tiny_traffic.values
        day0, day1 = values[:spd], values[spd : 2 * spd]
        corr = np.corrcoef(day0.ravel(), day1.ravel())[0, 1]
        assert corr > 0.5

    def test_spatial_correlation_decays(self, tiny_traffic):
        """Nearby sensors correlate more than far-apart ones."""
        from repro.graph import euclidean_distance_matrix

        values = tiny_traffic.values
        distances = euclidean_distance_matrix(tiny_traffic.coords)
        corr = np.corrcoef(values.T)
        n = len(corr)
        triu = np.triu_indices(n, k=1)
        near = distances[triu] < np.median(distances[triu])
        assert corr[triu][near].mean() > corr[triu][~near].mean()


class TestAirQuality:
    def test_values_positive_and_bounded(self, tiny_airq):
        assert tiny_airq.values.min() >= 2.0
        assert tiny_airq.values.max() <= 900.0

    def test_regional_correlation(self, tiny_airq):
        """Smog episodes are regional: mean pairwise correlation is high."""
        corr = np.corrcoef(tiny_airq.values.T)
        triu = np.triu_indices(len(corr), k=1)
        assert corr[triu].mean() > 0.3

    def test_pm25_simulator_shapes(self):
        rng = np.random.default_rng(6)
        coords = rng.uniform(0, 10_000, size=(8, 2))
        mixture = rng.dirichlet(np.ones(5), size=8)
        out = simulate_pm25(coords, mixture, steps_per_day=24, num_days=5, rng=rng)
        assert out.shape == (120, 8)


class TestCatalog:
    def test_all_presets_buildable_small(self):
        for key in DATASET_MAKERS:
            dataset = make_dataset(key, num_sensors=12, num_days=2)
            assert dataset.num_locations == 12
            assert dataset.num_steps == dataset.steps_per_day * 2

    def test_intervals_match_table2(self):
        assert make_dataset("pems-bay", num_sensors=8, num_days=1).steps_per_day == 288
        assert make_dataset("melbourne", num_sensors=8, num_days=1).steps_per_day == 96
        assert make_dataset("airq", num_sensors=8, num_days=2).steps_per_day == 24

    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError):
            make_dataset("metr-la")

    def test_deterministic_under_seed(self):
        a = make_dataset("pems-bay", num_sensors=10, num_days=1, seed=42)
        b = make_dataset("pems-bay", num_sensors=10, num_days=1, seed=42)
        assert np.allclose(a.values, b.values)
        assert np.allclose(a.coords, b.coords)

    def test_airq_two_clusters(self):
        dataset = make_dataset("airq", num_sensors=20, num_days=2)
        x = dataset.coords[:, 0]
        # Bimodal x-coordinates: a wide gap between the two cities.
        assert x.max() - x.min() > 50_000


class TestDatasetContainer:
    def test_describe_fields(self, tiny_traffic):
        info = tiny_traffic.describe()
        assert info["sensors"] == tiny_traffic.num_locations
        assert info["steps"] == tiny_traffic.num_steps

    def test_subset_locations(self, tiny_traffic):
        subset = tiny_traffic.subset_locations(np.arange(5))
        assert subset.num_locations == 5
        assert subset.values.shape[1] == 5
        assert len(subset.features) == 5

    def test_subset_steps(self, tiny_traffic):
        subset = tiny_traffic.subset_steps(np.arange(10))
        assert subset.num_steps == 10
        assert subset.num_locations == tiny_traffic.num_locations

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SpatioTemporalDataset(
                name="bad",
                values=np.zeros((5, 3)),
                coords=np.zeros((4, 2)),  # mismatch
                steps_per_day=24,
                features=LocationFeatures(
                    poi_counts=np.zeros((3, 26)), scale=np.zeros(3), road=np.zeros((3, 4))
                ),
            )

    def test_feature_embedding_dim(self, tiny_traffic):
        emb = tiny_traffic.features.embedding_matrix()
        assert emb.shape == (tiny_traffic.num_locations, 31)  # 26 + 1 + 4

    def test_feature_shape_validation(self):
        with pytest.raises(ValueError):
            LocationFeatures(poi_counts=np.zeros((3, 5)), scale=np.zeros(3), road=np.zeros((3, 4)))
