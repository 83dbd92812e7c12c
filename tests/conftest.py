"""Shared fixtures: small deterministic datasets and splits, and a
second registered array backend."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import NumpyRefBackend, register_backend
from repro.backend import registry as backend_registry
from repro.data import WindowSpec, space_split
from repro.data.synthetic import make_airq, make_melbourne, make_pems_bay


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tiny_traffic():
    """A 24-sensor, 3-day highway dataset — small enough for training tests."""
    return make_pems_bay(num_sensors=24, num_days=3, seed=7)


@pytest.fixture(scope="session")
def tiny_urban():
    """A 20-sensor, 3-day urban dataset."""
    return make_melbourne(num_sensors=20, num_days=3, seed=8)


@pytest.fixture(scope="session")
def tiny_airq():
    """A 16-station, 12-day air-quality dataset."""
    return make_airq(num_sensors=16, num_days=12, seed=9)


@pytest.fixture(scope="session")
def tiny_split(tiny_traffic):
    return space_split(tiny_traffic.coords, "horizontal")


@pytest.fixture(scope="session")
def tiny_spec():
    return WindowSpec(input_length=8, horizon=8)


#: Name under which ``twin_backend`` registers its second backend.
TWIN_BACKEND = "numpy_ref_twin"


class NumpyRefTwin(NumpyRefBackend):
    """``numpy_ref`` under another name: a second registered backend, so
    the registry's substitution and scoping and cross-backend restore
    stay covered."""

    name = TWIN_BACKEND


@pytest.fixture()
def twin_backend():
    """Register :class:`NumpyRefTwin` for one test, then remove it."""
    register_backend(TWIN_BACKEND, NumpyRefTwin)
    yield TWIN_BACKEND
    backend_registry._FACTORIES.pop(TWIN_BACKEND, None)
    backend_registry._INSTANCES.pop(TWIN_BACKEND, None)
