"""Property-based tests for the extension modules.

Invariants: serving simulations conserve queries and respect causality.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.queueing import BatchedServerSim, PipelineServerSim


@st.composite
def arrival_arrays(draw):
    n = draw(st.integers(1, 60))
    gaps = draw(
        st.lists(
            st.floats(0.0, 1e7, allow_nan=False), min_size=n, max_size=n
        )
    )
    return np.cumsum(np.asarray(gaps, dtype=np.float64))


@given(arrival_arrays(), st.integers(1, 64), st.floats(0.0, 20.0))
@settings(max_examples=60, deadline=None)
def test_batched_server_conserves_queries(arrivals, batch_size, timeout_ms):
    server = BatchedServerSim(
        lambda b: 1.0 + 0.01 * b, batch_size=batch_size,
        batch_timeout_ms=timeout_ms,
    )
    result = server.run(arrivals)
    assert result.count == arrivals.size
    assert (result.completions_ns >= result.arrivals_ns).all()
    # Completions never go backwards (single serial server).
    assert (np.diff(result.completions_ns) >= -1e-6).all()


@given(arrival_arrays(), st.floats(1.0, 100.0), st.floats(100.0, 10_000.0))
@settings(max_examples=60, deadline=None)
def test_pipeline_server_causal_and_ordered(arrivals, latency_us, ii_ns):
    server = PipelineServerSim(
        single_item_latency_us=latency_us, ii_ns=ii_ns
    )
    result = server.run(arrivals)
    assert result.count == arrivals.size
    assert (result.completions_ns >= result.arrivals_ns).all()
    spacing = np.diff(result.completions_ns)
    # Items leave at least one II apart (in-order pipeline).
    assert (spacing >= ii_ns - 1e-6).all()
