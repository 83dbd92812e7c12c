"""One bad request fails only itself, and reaches the client as its fault.

A micro-batch can mix starts the model refuses (an input window outside
the data, or one holding a non-finite observed reading) with valid ones.
The refused starts fail with :class:`InvalidRequest` (HTTP 400 on the
wire); every valid start batched with them still gets its direct-predict
bytes.
"""

from __future__ import annotations

import http.client
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import IDWPersistenceForecaster
from repro.data import SpatioTemporalDataset, WindowSpec, space_split, temporal_split
from repro.data.synthetic import make_pems_bay
from repro.serving import InvalidRequest, ServingRuntime
from repro.serving.transport import ForecastClient, ForecastHTTPServer, codec

SPEC = WindowSpec(input_length=6, horizon=6)


@pytest.fixture(scope="module")
def gappy():
    """An IDW model fitted on data with one NaN observed reading in the
    test period, with its valid, NaN-window and out-of-range starts."""
    clean = make_pems_bay(num_sensors=16, num_days=2, seed=3)
    split = space_split(clean.coords, "horizontal")
    train_ix, _ = temporal_split(clean.num_steps)
    values = clean.values.copy()
    nan_step = clean.num_steps - 40
    values[nan_step, split.observed[0]] = np.nan
    dataset = SpatioTemporalDataset(
        name=clean.name, values=values, coords=clean.coords,
        steps_per_day=clean.steps_per_day, features=clean.features,
        interval_minutes=clean.interval_minutes,
    )
    model = IDWPersistenceForecaster()
    model.fit(dataset, split, SPEC, train_ix)
    last = dataset.num_steps - SPEC.input_length
    nan_windows = list(range(nan_step - SPEC.input_length + 1, nan_step + 1))
    valid = [s for s in range(last + 1) if s not in nan_windows]
    out_of_range = [-3, -1, last + 1, last + 50]
    return model, valid, nan_windows, out_of_range


def _direct(model, start: int) -> bytes:
    return model.predict(np.array([start]))[0].tobytes()


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_mixed_batches_fail_only_their_bad_starts(gappy, data):
    model, valid, nan_windows, out_of_range = gappy
    start = st.one_of(
        st.sampled_from(valid), st.sampled_from(nan_windows), st.sampled_from(out_of_range)
    )
    calls = data.draw(st.lists(st.lists(start, min_size=1, max_size=6), min_size=2, max_size=4))
    bad = set(nan_windows) | set(out_of_range)
    with ServingRuntime() as runtime:
        runtime.register("idw", model)
        barrier = threading.Barrier(len(calls))
        handles: list = [None] * len(calls)

        def submit(i: int) -> None:
            barrier.wait()
            handles[i] = runtime.submit_many("idw", calls[i])

        threads = [threading.Thread(target=submit, args=(i,)) for i in range(len(calls))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for call, call_handles in zip(calls, handles):
            for start, handle in zip(call, call_handles):
                if start in bad:
                    with pytest.raises(InvalidRequest):
                        handle.result(timeout=10)
                else:
                    assert handle.result(timeout=10).tobytes() == _direct(model, start)
        stats = runtime.stats("idw")
        total = sum(len(call) for call in calls)
        assert stats["submitted"] == total
        assert stats["completed"] + stats["failed"] == total
        assert stats["failed"] == sum(start in bad for call in calls for start in call)
        # The scheduler keeps serving after the failures.
        assert runtime.forecast("idw", [valid[0]])[0].tobytes() == _direct(model, valid[0])


def test_bad_starts_are_400_over_the_wire(gappy):
    model, valid, nan_windows, out_of_range = gappy
    with ServingRuntime() as runtime:
        runtime.register("idw", model)
        with ForecastHTTPServer(runtime).start() as server:
            server.set_ready()
            with ForecastClient("127.0.0.1", server.port) as client:
                for bad in (out_of_range[0], nan_windows[0]):
                    with pytest.raises(InvalidRequest, match="invalid_request"):
                        client.forecast("idw", [valid[1], bad])
                    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
                    conn.request("POST", "/v1/forecast_many/idw",
                                 body=codec.encode_request([valid[2], bad]),
                                 headers={"Content-Type": codec.CONTENT_TYPE})
                    response = conn.getresponse()
                    response.read()
                    conn.close()
                    assert response.status == 400
                stacked = client.forecast("idw", [valid[1], valid[2]])
                assert stacked[0].tobytes() == _direct(model, valid[1])
                assert stacked[1].tobytes() == _direct(model, valid[2])
