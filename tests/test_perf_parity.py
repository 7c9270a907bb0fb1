"""Scalar-vs-vectorised parity for the simulation hot paths.

Each hot path rewritten for raw speed keeps (or re-states here) its
original scalar implementation, and these tests pin the fast paths to it
under fixed seeds:

* the batched server's batch-major loop vs the per-batch NumPy-scalar
  loop it replaced (restated verbatim below);
* the routing policies' incremental scan loops vs the original
  ``min(order, key=...)`` virtual-queue loops (restated verbatim below),
  plus a pinned byte-for-byte decision regression; for ``sla-aware``
  this covers the bulk-committed fallback runs too, on streams built
  to drive them (overload, ties, tiers at the SLO, one replica,
  unsorted and empty streams);
* the autoscale replay's memoised window plans vs a fresh, cache-cold
  run of equal-valued inputs;
* the ``lru`` cache policy's one-pass ``OrderedDict`` replay vs a
  textbook LRU stack (a list, most recent key last);
* trace replay's chunked kernels vs the per-array versions they
  replaced (copied below): Poisson draws, thinning, the pipelined
  server's running maximum, the sorted-stream step of the queue sims,
  the cluster and the sharded cluster vs plain ``np.sort``, and the
  digest's bin map.  These compare bit patterns, so ``-0.0`` and
  ``0.0`` differ.

Every comparison is exact (``np.array_equal`` or equality, not
tolerances): any drift is a bug.
"""

import json
import warnings

import numpy as np
import pytest

from repro.cluster import cluster as cluster_module
from repro.cluster import routing
from repro.cluster.routing import (
    CheapestFirstPolicy,
    LeastLoadedPolicy,
    ReplicaView,
    RoundRobinPolicy,
    SlaAwarePolicy,
)
from repro.distplan import cluster as sharded_module
from repro.memory import get_cache_policy
from repro.serving import arrivals, queueing
from repro.serving.arrivals import (
    RateTrace,
    _eval_rate,
    bursty_trace,
    check_positive,
    diurnal_trace,
    flash_crowd_trace,
    poisson_arrivals,
    trace_arrivals,
)
from repro.serving.queueing import (
    BatchedServerSim,
    PipelineServerSim,
    ServingResult,
    sorted_arrivals,
)
from repro.telemetry import digest
from repro.telemetry.digest import (
    _INV_LOG_STEP,
    _LOG_MIN,
    EDGES,
    MAX_TRACKED,
    MIN_TRACKED,
    TOTAL_BINS,
    QuantileDigest,
    _bin_index,
)


# ---------------------------------------------------------------------------
# Batched server
# ---------------------------------------------------------------------------


def _reference_batched_run(sim, arrivals_ns):
    """The original per-batch NumPy-scalar loop of
    :meth:`BatchedServerSim.run`, verbatim."""
    arrivals = np.sort(np.asarray(arrivals_ns, dtype=np.float64))
    completions = np.empty_like(arrivals)
    n = arrivals.size
    server_free = 0.0
    i = 0
    while i < n:
        first_arrival = arrivals[i]
        fill_idx = min(i + sim.batch_size, n) - 1
        full_at = (
            arrivals[fill_idx]
            if fill_idx - i + 1 == sim.batch_size
            else np.inf
        )
        timeout_at = first_arrival + sim.batch_timeout_ns
        dispatch = max(min(full_at, timeout_at), first_arrival, server_free)
        j = int(np.searchsorted(arrivals, dispatch, side="right"))
        j = max(j, i + 1)
        j = min(j, i + sim.batch_size, n)
        batch = j - i
        finish = dispatch + sim.batch_latency_ms(batch) * 1e6
        completions[i:j] = finish
        server_free = finish
        i = j
    return ServingResult(arrivals_ns=arrivals, completions_ns=completions)


class TestBatchedServerParity:
    @pytest.mark.parametrize(
        "n,batch_size,timeout_ms",
        [
            (1, 4, 10.0),
            (100, 1, 10.0),
            (1000, 4, 0.0),
            (1000, 64, 0.5),
            (5000, 256, 5.0),
            (5000, 2048, 10.0),
        ],
    )
    def test_exact_completion_parity(self, n, batch_size, timeout_ms):
        rng = np.random.default_rng(7)
        arrivals = np.cumsum(rng.exponential(1500.0, size=n))
        sim = BatchedServerSim(
            lambda b: 3.0 + 0.012 * b,
            batch_size=batch_size,
            batch_timeout_ms=timeout_ms,
        )
        fast = sim.run(arrivals)
        slow = _reference_batched_run(sim, arrivals)
        assert np.array_equal(fast.arrivals_ns, slow.arrivals_ns)
        assert np.array_equal(fast.completions_ns, slow.completions_ns)

    def test_cost_model_called_once_per_batch_count(self):
        calls: list[int] = []

        def latency(b: int) -> float:
            calls.append(b)
            return 2.0

        sim = BatchedServerSim(latency, batch_size=8, batch_timeout_ms=10.0)
        arrivals = np.zeros(64, dtype=np.float64)
        sim.run(arrivals)
        # Saturated stream: every batch is full, so the memoised cost
        # model is evaluated once, not once per batch.
        assert calls == [8]


# ---------------------------------------------------------------------------
# Routing policies
# ---------------------------------------------------------------------------


def _replica(index, backend, serving_ms, ii_ns, usd_hour, usd_million):
    return ReplicaView(
        index=index,
        backend=backend,
        model="small",
        latency_ms=serving_ms / 2,
        serving_latency_ms=serving_ms,
        ii_ns=ii_ns,
        usd_per_hour=usd_hour,
        usd_per_million_queries=usd_million,
    )


#: A heterogeneous three-tier fleet (fast/expensive through slow/cheap).
TIERS = [
    _replica(0, "fpga", 0.02, 300.0, 6.0, 0.4),
    _replica(1, "gpu", 2.0, 900.0, 9.0, 1.2),
    _replica(2, "cpu", 8.0, 4000.0, 2.0, 0.9),
]

#: Equal spacing everywhere: every arrival is a tie, so any tie-break
#: drift between the old and new scan orders shows immediately.
EQUAL_TIERS = [
    _replica(0, "a", 1.0, 500.0, 1.0, 1.0),
    _replica(1, "b", 1.0, 500.0, 1.0, 1.0),
    _replica(2, "c", 1.0, 500.0, 1.0, 1.0),
    _replica(3, "d", 1.0, 500.0, 1.0, 1.0),
]


def _reference_least_loaded(arrivals_ns, replicas):
    """The original per-event ``min(order, key=...)`` loop, verbatim."""
    free = np.zeros(len(replicas), dtype=np.float64)
    ii = np.array([r.ii_ns for r in replicas], dtype=np.float64)
    out = np.empty(arrivals_ns.size, dtype=np.int64)
    order = sorted(range(len(replicas)), key=lambda i: (ii[i], i))
    for k, t in enumerate(arrivals_ns):
        best = min(order, key=lambda i, t=t: max(free[i], t))
        out[k] = best
        free[best] = max(free[best], t) + ii[best]
    return out


def _reference_cheapest_first(arrivals_ns, replicas, max_backlog_ms=5.0):
    free = np.zeros(len(replicas), dtype=np.float64)
    ii = np.array([r.ii_ns for r in replicas], dtype=np.float64)
    order = sorted(
        range(len(replicas)),
        key=lambda i: (replicas[i].usd_per_million_queries, i),
    )
    threshold_ns = max_backlog_ms * 1e6
    out = np.empty(arrivals_ns.size, dtype=np.int64)
    for k, t in enumerate(arrivals_ns):
        for i in order:
            if free[i] - t <= threshold_ns:
                best = i
                break
        else:
            best = min(order, key=lambda i, t=t: max(free[i], t))
        out[k] = best
        free[best] = max(free[best], t) + ii[best]
    return out


def _reference_sla_aware(arrivals_ns, replicas, slo_ms):
    free = np.zeros(len(replicas), dtype=np.float64)
    ii = np.array([r.ii_ns for r in replicas], dtype=np.float64)
    service_ns = np.array(
        [r.serving_latency_ms * 1e6 for r in replicas], dtype=np.float64
    )
    order = sorted(
        range(len(replicas)),
        key=lambda i: (replicas[i].serving_latency_ms, i),
    )
    slo_ns = slo_ms * 1e6
    out = np.empty(arrivals_ns.size, dtype=np.int64)
    for k, t in enumerate(arrivals_ns):
        best = None
        for i in order:
            predicted = max(free[i], t) - t + service_ns[i]
            if predicted <= slo_ns:
                best = i
                break
        if best is None:
            best = min(
                order,
                key=lambda i, t=t: max(free[i], t) - t + service_ns[i],
            )
        out[k] = best
        free[best] = max(free[best], t) + ii[best]
    return out


def _stream(n=5000, gap_ns=450.0, seed=11):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(gap_ns, size=n))


class TestRoutingParity:
    @pytest.mark.parametrize("replicas", [TIERS, EQUAL_TIERS, TIERS[:1]])
    def test_least_loaded_matches_reference(self, replicas):
        arrivals = _stream()
        got = LeastLoadedPolicy().route(arrivals, replicas, slo_ms=30.0)
        assert np.array_equal(
            got, _reference_least_loaded(arrivals, replicas)
        )

    @pytest.mark.parametrize("replicas", [TIERS, EQUAL_TIERS])
    @pytest.mark.parametrize("backlog_ms", [0.001, 5.0])
    def test_cheapest_first_matches_reference(self, replicas, backlog_ms):
        arrivals = _stream()
        got = CheapestFirstPolicy(max_backlog_ms=backlog_ms).route(
            arrivals, replicas, slo_ms=30.0
        )
        assert np.array_equal(
            got,
            _reference_cheapest_first(
                arrivals, replicas, max_backlog_ms=backlog_ms
            ),
        )

    @pytest.mark.parametrize("replicas", [TIERS, EQUAL_TIERS])
    @pytest.mark.parametrize("slo_ms", [0.0002, 0.05, 10.0])
    def test_sla_aware_matches_reference(self, replicas, slo_ms):
        arrivals = _stream()
        got = SlaAwarePolicy().route(arrivals, replicas, slo_ms=slo_ms)
        assert np.array_equal(
            got, _reference_sla_aware(arrivals, replicas, slo_ms)
        )

    def test_round_robin_unchanged(self):
        arrivals = _stream(n=10)
        got = RoundRobinPolicy().route(arrivals, TIERS, slo_ms=30.0)
        assert got.tolist() == [0, 1, 2, 0, 1, 2, 0, 1, 2, 0]


class TestRoutingDecisionRegression:
    """Byte-for-byte pins of the routing decisions under a fixed stream.

    These sequences were produced by the original per-event loops; any
    future optimisation of the policies must keep them identical.
    """

    ARRIVALS = np.arange(1, 25, dtype=np.float64) * 250.0

    def test_pinned_decisions(self):
        expected = {
            "least-loaded": [0, 1, 0, 2, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0,
                             0, 0, 1, 0, 2, 0, 1, 0, 0],
            "cheapest-first": [0] * 24,
            "sla-aware": [0] * 24,
        }
        policies = {
            "least-loaded": LeastLoadedPolicy(),
            "cheapest-first": CheapestFirstPolicy(),
            "sla-aware": SlaAwarePolicy(),
        }
        for name, policy in policies.items():
            got = policy.route(self.ARRIVALS, TIERS, slo_ms=30.0)
            assert got.tolist() == expected[name], name

    def test_pinned_decisions_under_pressure(self):
        # A tight SLO and a tiny backlog threshold force the spill
        # paths; the pins cover the fallback scans too.
        tight = np.arange(1, 17, dtype=np.float64) * 40.0
        got_sla = SlaAwarePolicy().route(tight, TIERS, slo_ms=0.0002)
        got_cheap = CheapestFirstPolicy(max_backlog_ms=1e-6).route(
            tight, TIERS, slo_ms=30.0
        )
        assert got_sla.tolist() == _reference_sla_aware(
            tight, TIERS, 0.0002
        ).tolist()
        assert got_cheap.tolist() == _reference_cheapest_first(
            tight, TIERS, max_backlog_ms=1e-6
        ).tolist()


#: Every serving latency under a 0.2 ms SLO, so "no tier meets the
#: SLO" means "every tier is backlogged": the bulk path's home ground.
#: Capacity is 1/300 + 1/700 + 1/1500 per ns, about 5.43M queries/s.
BACKLOGGED_TIERS = [
    _replica(0, "fast", 0.01, 300.0, 1.0, 1.0),
    _replica(1, "mid", 0.05, 700.0, 1.0, 1.0),
    _replica(2, "slow", 0.1, 1500.0, 1.0, 1.0),
]
BACKLOGGED_CAPACITY_PER_S = 1e9 * sum(1 / r.ii_ns for r in BACKLOGGED_TIERS)


def _overloaded(load, n, seed=5):
    """``n`` Poisson arrivals at ``load`` x the backlogged fleet's capacity."""
    rng = np.random.default_rng(seed)
    gap_ns = 1e9 / (load * BACKLOGGED_CAPACITY_PER_S)
    return np.cumsum(rng.exponential(gap_ns, size=n))


def _overload_then_light():
    """5k arrivals at 2x capacity, then 15k at 0.3x: a run, then drain."""
    heavy = _overloaded(2.0, 5000)
    return np.concatenate([heavy, heavy[-1] + _overloaded(0.3, 15_000, 6)])


def _diurnal_overload(seed=3):
    """~120k arrivals whose sine peak overloads ``BACKLOGGED_TIERS``.

    The mean load is 0.8 of capacity and the peak 1.28, as in the e2e
    benchmark's replay: one long fallback run from the peak until the
    virtual queues drain, then cascade decisions and idle resets.
    """
    rate = 0.8 * BACKLOGGED_CAPACITY_PER_S
    trace = diurnal_trace(rate, 120_000 / rate)
    return trace_arrivals(np.random.default_rng(seed), trace)


class TestSlaAwareBulkParity:
    """Streams that drive the bulk-committed fallback runs."""

    @pytest.fixture
    def commits(self, monkeypatch):
        """Sizes of the bulk commits made while the test runs."""
        sizes = []
        helper = routing._commit_fallback_run

        def counting(arrivals, *args):
            chosen, after = helper(arrivals, *args)
            sizes.append(chosen.size)
            return chosen, after

        monkeypatch.setattr(routing, "_commit_fallback_run", counting)
        return sizes

    def _assert_matches(self, arrivals, replicas, slo_ms):
        got = SlaAwarePolicy().route(arrivals, replicas, slo_ms=slo_ms)
        expected = _reference_sla_aware(arrivals, replicas, slo_ms)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)
        return got

    def test_diurnal_overload_runs_past_the_largest_block(self, commits):
        self._assert_matches(_diurnal_overload(), BACKLOGGED_TIERS, 0.2)
        assert commits.count(routing._BLOCK_MAX) >= 3

    def test_equal_tiers_with_duplicate_timestamps(self, commits):
        # Four identical tiers and three arrivals per timestamp: every
        # choice is a tie, settled towards the lower index.
        times = np.cumsum(np.random.default_rng(8).exponential(300.0, 8000))
        arrivals = np.repeat(np.round(times), 3)
        for slo_ms in (0.0002, 1.5, 10.0):
            self._assert_matches(arrivals, EQUAL_TIERS, slo_ms)
        assert sum(commits) > 0

    def test_tiers_at_and_above_the_slo(self, commits):
        # "mid" serves in exactly the SLO and "slow" above it: past the
        # SLO no longer implies backlogged, and the fallback can pick a
        # tier that is idle.
        replicas = [
            _replica(0, "fast", 0.01, 300.0, 1.0, 1.0),
            _replica(1, "mid", 0.05, 600.0, 1.0, 1.0),
            _replica(2, "slow", 0.08, 1000.0, 1.0, 1.0),
        ]
        self._assert_matches(_overload_then_light(), replicas, 0.05)
        assert sum(commits) > 0

    def test_predictions_exactly_at_the_slo(self, commits):
        # Timestamps on a 100 ns grid and whole-ns latencies: predictions
        # land exactly on the SLO, where the cascade's ``<=`` decides.
        replicas = [
            _replica(0, "a", 0.05, 400.0, 1.0, 1.0),
            _replica(1, "b", 0.04, 300.0, 1.0, 1.0),
            _replica(2, "c", 0.03, 300.0, 1.0, 1.0),
        ]
        capacity_per_s = 1e9 * sum(1 / r.ii_ns for r in replicas)
        gaps = np.random.default_rng(0).exponential(
            1e9 / (0.93 * capacity_per_s), 20_000
        )
        arrivals = np.cumsum(np.round(gaps / 100) * 100)
        self._assert_matches(arrivals, replicas, 0.06)
        assert sum(commits) > 0

    def test_single_replica(self, commits):
        for slo_ms in (0.05, 0.2):
            self._assert_matches(
                _overload_then_light(), BACKLOGGED_TIERS[:1], slo_ms
            )
        assert sum(commits) > 0

    def test_unsorted_arrivals(self):
        arrivals = np.random.default_rng(9).permutation(
            _overloaded(1.5, 20_000)
        )
        self._assert_matches(arrivals, BACKLOGGED_TIERS, 0.2)
        self._assert_matches(arrivals, TIERS, 0.05)

    def test_empty_stream(self):
        got = self._assert_matches(np.empty(0), BACKLOGGED_TIERS, 0.2)
        assert got.shape == (0,)

    def test_overload_is_committed_in_bulk(self, commits):
        arrivals = _overloaded(1.5, 100_000)
        self._assert_matches(arrivals, BACKLOGGED_TIERS, 0.2)
        assert sum(commits) >= 0.9 * arrivals.size


# ---------------------------------------------------------------------------
# LRU row cache
# ---------------------------------------------------------------------------


def _reference_lru(keys, capacity_rows, stack=None):
    """Textbook LRU stack: most recent key last, evict from the front.

    ``stack`` carries the cache contents across calls, so a warm cache
    is a stack left over from an earlier trace.
    """
    stack = [] if stack is None else stack
    flags = []
    for key in np.asarray(keys, dtype=np.int64).tolist():
        hit = key in stack
        if hit:
            stack.remove(key)
        stack.append(key)
        if len(stack) > capacity_rows:
            del stack[0]
        flags.append(hit)
    return np.array(flags, dtype=bool)


class TestLruCacheParity:
    """The one-pass ``lru`` replay vs the textbook LRU stack."""

    lru = staticmethod(get_cache_policy("lru").hits)

    @pytest.mark.parametrize("capacity", [1, 2, 7, 64, 1000])
    @pytest.mark.parametrize("universe", [1, 3, 50, 2000])
    def test_exact_trace_parity(self, capacity, universe):
        rng = np.random.default_rng(capacity * 1000 + universe)
        keys = rng.integers(0, universe, size=4000)
        assert np.array_equal(
            self.lru(keys, capacity), _reference_lru(keys, capacity)
        )

    def test_zipf_trace_parity(self):
        from repro.models.distributions import zipf_indices

        rng = np.random.default_rng(3)
        keys = zipf_indices(rng, 10_000, 20_000, 1.05)
        assert np.array_equal(self.lru(keys, 256), _reference_lru(keys, 256))

    def test_warm_cache_parity(self):
        # Scoring only the suffix of a replay over warm-up + trace (what
        # TierHierarchy.simulate does with warmup_keys) matches a stack
        # warmed by the first trace and then fed the second.
        rng = np.random.default_rng(9)
        first = rng.integers(0, 300, size=1500)
        second = rng.integers(0, 300, size=1500)
        stack = []
        _reference_lru(first, 128, stack)
        expected = _reference_lru(second, 128, stack)
        got = self.lru(np.concatenate([first, second]), 128)[first.size:]
        assert np.array_equal(got, expected)

    def test_empty_trace_is_a_no_op(self):
        hits = self.lru(np.array([], dtype=np.int64), 4)
        assert hits.dtype == bool
        assert hits.shape == (0,)


# ---------------------------------------------------------------------------
# Autoscale window replay
# ---------------------------------------------------------------------------


class TestAutoscaleMemoParity:
    @pytest.fixture(scope="class")
    def surface(self):
        from repro.experiments.common import session

        return session("small", "gpu")

    def _run(self, surface, trace):
        from repro.autoscale import simulate_autoscale

        return simulate_autoscale(
            surface, trace, policy="reactive-utilisation",
            slo_ms=30.0, windows=6, seed=0,
        )

    def _trace(self, surface):
        from repro.serving.arrivals import diurnal_trace

        rate = 4.0 * surface.perf().throughput_items_per_s
        return diurnal_trace(rate, 6 * 0.05, amplitude=0.6)

    def test_warm_plan_cache_is_byte_identical(self, surface):
        trace = self._trace(surface)
        first = self._run(surface, trace)
        # Second run reuses the memoised window plans and engine caches.
        second = self._run(surface, trace)
        assert json.dumps(first.as_dict()) == json.dumps(second.as_dict())

    def test_cold_equal_valued_trace_is_byte_identical(self, surface):
        # A freshly built trace hashes differently (new rate_fn
        # closures), so the lru_cache misses — the replay must not care.
        first = self._run(surface, self._trace(surface))
        second = self._run(surface, self._trace(surface))
        assert json.dumps(first.as_dict()) == json.dumps(second.as_dict())

    def test_window_timeline_statistics_consistent(self, surface):
        result = self._run(surface, self._trace(surface))
        for window in result.windows:
            assert window.p50_ms <= window.p95_ms <= window.p99_ms
            assert 0.0 <= window.sla_attainment <= 1.0


# ---------------------------------------------------------------------------
# Trace replay: arrival thinning, queue sims, digest bins
# ---------------------------------------------------------------------------
#
# The per-array implementations the chunked kernels replaced, copied
# verbatim, except that the reference thinning draws its candidates
# through the reference Poisson generator.
# Every comparison is bitwise (``uint64`` views), so ``-0.0`` and
# ``0.0`` count as different values.


def _reference_poisson_arrivals(rng, rate_per_s, duration_s):
    check_positive("rate_per_s", rate_per_s)
    check_positive("duration_s", duration_s)
    horizon_ns = duration_s * 1e9
    expected = rate_per_s * duration_s
    # Draw slightly more gaps than needed per round, then truncate.
    n = int(expected + 6 * np.sqrt(expected) + 16)
    chunks: list[np.ndarray] = []
    reached = 0.0
    while reached < horizon_ns:
        times = np.cumsum(rng.exponential(1e9 / rate_per_s, size=n)) + reached
        chunks.append(times)
        reached = float(times[-1])
    times = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    return times[times < horizon_ns]


def _reference_trace_arrivals(rng, trace):
    chunks: list[np.ndarray] = []
    offset_ns = 0.0
    for seg in trace.segments:
        if seg.peak_rate > 0:
            candidates = _reference_poisson_arrivals(
                rng, seg.peak_rate, seg.duration_s
            )
            if candidates.size:
                local_s = candidates / 1e9
                accept_p = np.clip(
                    _eval_rate(seg.rate_fn, local_s) / seg.peak_rate, 0.0, 1.0
                )
                keep = rng.random(candidates.size) < accept_p
                chunks.append(candidates[keep] + offset_ns)
        offset_ns += seg.duration_s * 1e9
    if not chunks:
        return np.empty(0, dtype=np.float64)
    return np.concatenate(chunks)


def _reference_pipeline_run(sim, arrivals_ns):
    arrivals = np.sort(np.asarray(arrivals_ns, dtype=np.float64))
    # The recurrence start[i] = max(arrival[i], start[i-1] + II)
    # unrolls to start[i] = max_{j<=i}(arrival[j] + (i-j) * II), which
    # is a running maximum of (arrival[j] - j * II) shifted back — one
    # vectorised pass instead of a Python loop per query.
    idx = np.arange(arrivals.size, dtype=np.float64)
    shifted = arrivals - idx * sim.ii_ns
    starts = np.maximum.accumulate(shifted) + idx * sim.ii_ns
    completions = starts + sim.latency_ns
    return ServingResult(arrivals_ns=arrivals, completions_ns=completions)


def _reference_bin_index(values):
    positive = values > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(values, where=positive, out=np.zeros_like(values))
    index = np.floor(
        (logs - _LOG_MIN) * _INV_LOG_STEP
    ).astype(np.int64) + 1
    np.clip(index, 0, TOTAL_BINS - 1, out=index)
    index[~positive] = 0
    return index


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.dtype == b.dtype
        and a.shape == b.shape
        and np.array_equal(
            np.ascontiguousarray(a).view(np.uint64),
            np.ascontiguousarray(b).view(np.uint64),
        )
    )


def _traces(rate):
    """The replay corpus at base rate ``rate`` over about a second."""
    from repro.autoscale.simulator import _window_trace

    # A window straddling a segment boundary: its envelope is sampled,
    # so the acceptance ratio can exceed 1 (the parent clipped it).
    parent = diurnal_trace(rate, 0.6, phase=0.4).then(
        flash_crowd_trace(rate, 0.6)
    )
    window = _window_trace(parent, 0.3, 0.6)
    return {
        "constant": RateTrace.constant(rate, 1.0),
        "diurnal": diurnal_trace(rate, 1.0),
        "diurnal-phase": diurnal_trace(rate, 1.0, period_s=0.3, phase=1.1),
        "bursty": bursty_trace(
            np.random.default_rng(4), rate, 1.0,
            mean_burst_s=0.05, mean_gap_s=0.1,
        ),
        "flash-at-0": flash_crowd_trace(rate, 1.0, spike_at_s=0.0),
        "flash": flash_crowd_trace(rate, 1.0),
        "concat": RateTrace.concat(
            [
                diurnal_trace(rate, 0.4),
                RateTrace.constant(rate / 2, 0.2),
                flash_crowd_trace(rate, 0.4),
            ]
        ),
        "zero-rate-segment": RateTrace.constant(rate, 0.3)
        .then(RateTrace.constant(0.0, 0.4))
        .then(diurnal_trace(rate, 0.3)),
        "autoscale-window": window,
        "autoscale-scaled": window.scaled(1 / 3),
    }


class _ShortRoundRng:
    """A generator whose first exponential round falls short of the
    horizon, so :func:`poisson_arrivals` must draw a second round."""

    def __init__(self, seed):
        self._real = np.random.default_rng(seed)
        self._rounds = 0

    def exponential(self, scale, size):
        self._rounds += 1
        gaps = self._real.exponential(scale, size)
        return gaps / 4 if self._rounds == 1 else gaps

    def random(self, size):
        return self._real.random(size)


class TestArrivalParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "rate,duration_s",
        [(3.0, 0.5), (5_000.0, 1.0), (70_000.0, 1.0), (1_000_000.0, 1.0)],
    )
    def test_poisson_arrivals(self, rate, duration_s, seed):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        out = poisson_arrivals(rng, rate, duration_s)
        assert _same_bits(out, _reference_poisson_arrivals(ref, rate, duration_s))
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_poisson_second_draw_round(self):
        out = poisson_arrivals(_ShortRoundRng(3), 2_000.0, 0.5)
        ref = _reference_poisson_arrivals(_ShortRoundRng(3), 2_000.0, 0.5)
        assert _same_bits(out, ref)
        # The stub's first round covers about a quarter of the window.
        assert out.size > 1_500 and out[-1] > 0.4e9

    def test_trace_second_draw_round(self):
        trace = _traces(2_000.0)["concat"]
        out = trace_arrivals(_ShortRoundRng(5), trace)
        assert _same_bits(out, _reference_trace_arrivals(_ShortRoundRng(5), trace))

    @pytest.mark.parametrize("chunk", [None, 997])
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("name", sorted(_traces(1.0)))
    def test_trace_arrivals(self, monkeypatch, name, seed, chunk):
        if chunk is not None:
            monkeypatch.setattr(arrivals, "_THIN_CHUNK", chunk)
        trace = _traces(5_000.0)[name]
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        out = trace_arrivals(rng, trace)
        assert out.size > 0
        assert _same_bits(out, _reference_trace_arrivals(ref, trace))
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_corpus_shapes(self):
        traces = _traces(5_000.0)
        assert len(traces["bursty"].segments) > 3
        assert len(traces["flash"].segments) == 2
        assert len(traces["flash-at-0"].segments) == 1
        assert traces["zero-rate-segment"].segments[1].peak_rate == 0.0
        window = traces["autoscale-window"]
        grid = np.linspace(0.0, 0.6, 100_001, endpoint=False)
        # The sampled envelope undershoots the rate: ratios above 1 occur.
        assert window.rates_at(grid).max() > window.peak_rate

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_exactly_one_chunk(self, monkeypatch, delta):
        trace = diurnal_trace(20_000.0, 0.5)
        probe = np.random.default_rng(9)
        candidates = _reference_poisson_arrivals(probe, trace.peak_rate, 0.5)
        monkeypatch.setattr(arrivals, "_THIN_CHUNK", candidates.size + delta)
        out = trace_arrivals(np.random.default_rng(9), trace)
        ref = _reference_trace_arrivals(np.random.default_rng(9), trace)
        assert _same_bits(out, ref)

    @pytest.mark.parametrize("name", ["diurnal", "bursty"])
    def test_a_million_arrivals(self, name):
        trace = _traces(1_000_000.0)[name]
        out = trace_arrivals(np.random.default_rng(11), trace)
        ref = _reference_trace_arrivals(np.random.default_rng(11), trace)
        assert out.size > 900_000
        assert _same_bits(out, ref)


def _streams():
    """Arrival streams for the queue sims' sorted-stream step."""
    rng = np.random.default_rng(12)
    ordered = np.cumsum(rng.exponential(400.0, size=5_000))
    return {
        "sorted": ordered,
        "unsorted": rng.permutation(ordered),
        "duplicates": np.repeat(ordered[:1_500], 3),
        "signed-zero-ties": np.array([0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 5.0]),
        # Non-decreasing, yet np.sort may reorder its zeros (it does
        # for lengths around 16-100 with AVX-512).
        "sorted-signed-zeros": np.concatenate(
            (np.where(rng.random(24) < 0.5, -0.0, 0.0), ordered[:16])
        ),
        "leading-zero": np.concatenate(([0.0], ordered)),
        "negative": ordered - ordered[2_500],
        "descending": ordered[::-1].copy(),
        "length-1": np.array([3.5]),
        "probe": np.zeros(1),
        "strided": ordered[::2],
    }


class TestQueueSimParity:
    @pytest.mark.parametrize("name", sorted(_streams()))
    def test_sorted_arrivals_match_np_sort(self, name):
        stream = _streams()[name]
        before = stream.copy()
        out = sorted_arrivals(stream)
        assert _same_bits(out, np.sort(stream))
        assert not np.shares_memory(out, stream)
        assert _same_bits(stream, before)

    @pytest.mark.parametrize("name", sorted(_streams()))
    def test_pipeline_run(self, name):
        stream = _streams()[name]
        before = stream.copy()
        sim = PipelineServerSim(single_item_latency_us=3.7, ii_ns=331.0)
        out = sim.run(stream)
        ref = _reference_pipeline_run(sim, stream)
        assert _same_bits(out.arrivals_ns, ref.arrivals_ns)
        assert _same_bits(out.completions_ns, ref.completions_ns)
        assert not np.shares_memory(out.arrivals_ns, stream)
        assert not np.shares_memory(out.completions_ns, stream)
        assert _same_bits(stream, before)

    def test_pipeline_run_on_a_million_arrivals(self):
        trace = _traces(1_000_000.0)["diurnal"]
        stream = trace_arrivals(np.random.default_rng(2), trace)
        sim = PipelineServerSim(single_item_latency_us=2.1, ii_ns=850.0)
        out = sim.run(stream)
        ref = _reference_pipeline_run(sim, stream)
        assert _same_bits(out.arrivals_ns, ref.arrivals_ns)
        assert _same_bits(out.completions_ns, ref.completions_ns)

    @pytest.mark.parametrize("name", sorted(_streams()))
    def test_batched_run(self, name):
        stream = _streams()[name]
        before = stream.copy()
        sim = BatchedServerSim(lambda b: 0.4 + 0.01 * b, batch_size=16)
        out = sim.run(stream)
        ref = _reference_batched_run(sim, stream)
        assert _same_bits(out.arrivals_ns, np.sort(stream))
        assert _same_bits(out.completions_ns, ref.completions_ns)
        assert not np.shares_memory(out.arrivals_ns, stream)
        assert _same_bits(stream, before)

    @pytest.fixture(scope="class")
    def cluster(self):
        from repro import ReplicaSpec, deploy_cluster

        return deploy_cluster(
            [ReplicaSpec("small", "fpga"), ReplicaSpec("small", "cpu")],
            router="sla-aware",
            max_rows=64,
        )

    @pytest.mark.parametrize("name", sorted(_streams()))
    def test_cluster_serve_matches_plain_sort(self, monkeypatch, cluster, name):
        stream = _streams()[name]
        before = stream.copy()
        routed = []
        route = cluster.router.route

        def spy(arrivals_ns, *args, **kwargs):
            routed.append(arrivals_ns.copy())
            return route(arrivals_ns, *args, **kwargs)

        monkeypatch.setattr(cluster.router, "route", spy)
        fast = cluster.serve(stream, telemetry=False)
        assert _same_bits(routed[0], np.sort(stream))
        assert _same_bits(stream, before)

        def plain(arrivals_ns):
            return np.sort(np.asarray(arrivals_ns, dtype=np.float64))

        monkeypatch.setattr(queueing, "sorted_arrivals", plain)
        monkeypatch.setattr(cluster_module, "sorted_arrivals", plain)
        ref = cluster.serve(stream, telemetry=False)
        assert _same_bits(fast.arrivals_ns, ref.arrivals_ns)
        assert _same_bits(fast.completions_ns, ref.completions_ns)
        assert np.array_equal(fast.assignments, ref.assignments)

    @pytest.fixture(scope="class")
    def sharded(self):
        from repro import ReplicaSpec, deploy_sharded

        return deploy_sharded(
            "small",
            [ReplicaSpec(backend="fpga", count=2), ReplicaSpec(backend="cpu")],
            max_rows=64,
            node_capacity_bytes=512 * 1024 * 1024,
        )

    @pytest.mark.parametrize("name", sorted(_streams()))
    def test_sharded_serve_matches_plain_sort(self, monkeypatch, sharded, name):
        stream = _streams()[name]
        before = stream.copy()
        fast = sharded.serve(stream, telemetry=False)
        assert _same_bits(fast.arrivals_ns, np.sort(stream))
        assert not np.shares_memory(fast.arrivals_ns, stream)
        assert _same_bits(stream, before)

        def plain(arrivals_ns):
            return np.sort(np.asarray(arrivals_ns, dtype=np.float64))

        monkeypatch.setattr(sharded_module, "sorted_arrivals", plain)
        ref = sharded.serve(stream, telemetry=False)
        assert _same_bits(fast.arrivals_ns, ref.arrivals_ns)
        assert _same_bits(fast.completions_ns, ref.completions_ns)
        assert np.array_equal(fast.assignments, ref.assignments)

    @pytest.mark.parametrize("name", ["sorted", "unsorted", "signed-zero-ties"])
    def test_sharded_serve_is_order_free(self, sharded, name):
        stream = _streams()[name]
        served = sharded.serve(stream, telemetry=False)
        presorted = sharded.serve(np.sort(stream), telemetry=False)
        assert _same_bits(served.arrivals_ns, presorted.arrivals_ns)
        assert _same_bits(served.completions_ns, presorted.completions_ns)
        assert not np.shares_memory(served.arrivals_ns, stream)
        assert not np.shares_memory(served.completions_ns, stream)


def _edge_values():
    """Every bin edge and its neighbours, plus the values the bin map
    special-cases."""
    edges = np.concatenate((EDGES, [np.exp(_LOG_MIN)]))
    around = np.concatenate(
        (
            np.nextafter(edges, -np.inf),
            edges,
            np.nextafter(edges, np.inf),
        )
    )
    specials = np.array(
        [
            0.0, -0.0, -1.0, -1e-300, -5e-324, -1e300, 5e-324, 1e-300,
            5e-7, np.nextafter(5e-7, 0.0), np.nextafter(5e-7, 1.0),
            MIN_TRACKED, MAX_TRACKED, 1e300, np.finfo(np.float64).max,
        ]
    )
    return np.concatenate((specials, around))


class TestDigestParity:
    def test_bin_index_on_edges(self):
        values = _edge_values()
        assert np.array_equal(_bin_index(values), _reference_bin_index(values))

    @pytest.mark.parametrize("chunk", [None, 7, 4_093])
    def test_bin_index_across_chunks(self, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(digest, "_BIN_CHUNK", chunk)
        rng = np.random.default_rng(6)
        values = np.concatenate(
            (
                _edge_values(),
                rng.lognormal(0.0, 6.0, size=70_000),
                -rng.random(1_000),
            )
        )
        rng.shuffle(values)
        assert np.array_equal(_bin_index(values), _reference_bin_index(values))

    def test_add_many_bins_a_million_latencies(self):
        values = np.random.default_rng(8).lognormal(-2.0, 2.5, size=1_000_000)
        d = QuantileDigest()
        d.add_many(values)
        assert np.array_equal(
            d._counts,
            np.bincount(_reference_bin_index(values), minlength=TOTAL_BINS),
        )
        assert d.sum == float(values.sum())
        assert (d.min, d.max) == (float(values.min()), float(values.max()))

    @pytest.mark.parametrize(
        "bad",
        [
            [1.0, np.nan, 2.0],
            [np.inf],
            [1.0, -np.inf],
            [np.inf, -np.inf],
            [1e308, 1e308, np.inf],
            [np.nan, np.inf],
        ],
    )
    def test_add_many_rejects_non_finite(self, bad):
        d = QuantileDigest()
        d.add_many([0.5] * 600)
        state = d.to_dict()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                d.add_many(np.array(bad * 300))
        assert d.to_dict() == state

    def test_add_many_accepts_finite_values_whose_sum_overflows(self):
        d = QuantileDigest()
        with pytest.warns(RuntimeWarning, match="overflow"):
            d.add_many(np.full(600, 1e308))
        assert d.count == 600
        assert d.sum == np.inf
        assert d.max == 1e308
