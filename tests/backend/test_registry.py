"""Backend registry behaviour: the default, substitution and scoping.

The "other backend" in these tests is the ``twin_backend`` fixture's
renamed ``numpy_ref`` (see ``tests/conftest.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import (
    NumpyRefBackend,
    available_backends,
    get_backend,
    set_backend,
    use_backend,
)


@pytest.fixture()
def ref_active():
    """Pin numpy_ref as the active backend for the test, then restore."""
    previous = set_backend("numpy_ref")
    yield
    set_backend(previous)


def test_both_backends_registered(twin_backend):
    names = available_backends()
    assert "numpy_ref" in names
    assert twin_backend in names


def test_default_backend_is_ref():
    assert get_backend().name == "numpy_ref"


def test_set_backend_returns_previous_and_switches(ref_active, twin_backend):
    previous = set_backend(twin_backend)
    try:
        assert previous.name == "numpy_ref"
        assert get_backend().name == twin_backend
    finally:
        set_backend(previous)
    assert get_backend().name == "numpy_ref"


def test_use_backend_scopes_and_restores(ref_active, twin_backend):
    assert get_backend().name == "numpy_ref"
    with use_backend(twin_backend) as backend:
        assert backend.name == twin_backend
        assert get_backend().name == twin_backend
    assert get_backend().name == "numpy_ref"


def test_use_backend_restores_on_error(ref_active, twin_backend):
    with pytest.raises(RuntimeError):
        with use_backend(twin_backend):
            raise RuntimeError("boom")
    assert get_backend().name == "numpy_ref"


def test_unknown_backend_raises():
    with pytest.raises(KeyError, match="unknown backend"):
        set_backend("not_a_backend")


def test_unknown_backend_message_lists_registered(twin_backend):
    from repro.backend import UnknownBackendError

    with pytest.raises(UnknownBackendError) as excinfo:
        set_backend("not_a_backend")
    message = str(excinfo.value)
    for name in available_backends():
        assert name in message


def test_register_custom_backend(twin_backend):
    with use_backend(twin_backend) as backend:
        assert isinstance(backend, NumpyRefBackend)
        assert type(backend) is not NumpyRefBackend


def test_backends_share_numpy_rng_streams(twin_backend):
    expected = np.random.default_rng(7).random((4, 3))
    for name in ("numpy_ref", twin_backend):
        with use_backend(name) as backend:
            drawn = backend.random(backend.default_rng(7), (4, 3))
        np.testing.assert_array_equal(drawn, expected)
