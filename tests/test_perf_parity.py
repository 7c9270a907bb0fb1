"""Scalar-vs-vectorised parity for the simulation hot paths.

Each hot path rewritten for raw speed keeps (or re-states here) its
original scalar implementation, and these tests pin the fast paths to it
under fixed seeds:

* the pipeline event simulator's stage-major fixed-point sweeps vs the
  item-major reference loop (:meth:`PipelineSimulator._run_scalar`);
* the batched server's batch-major loop vs the per-batch NumPy-scalar
  reference (:meth:`BatchedServerSim._run_scalar`);
* the routing policies' incremental scan loops vs the original
  ``min(order, key=...)`` virtual-queue loops (restated verbatim below),
  plus a pinned byte-for-byte decision regression; for ``sla-aware``
  this covers the bulk-committed fallback runs too, on streams built
  to drive them (overload, ties, tiers at the SLO, one replica,
  unsorted and empty streams);
* the autoscale replay's memoised window plans vs a fresh, cache-cold
  run of equal-valued inputs;
* the ``lru`` cache policy's one-pass ``OrderedDict`` replay vs a
  textbook LRU stack (a list, most recent key last).

Every comparison is exact (``np.array_equal`` on float64 timelines, not
tolerances): latencies in the fixtures are integer-valued nanoseconds, so
the vectorised offset arithmetic is IEEE-exact and any drift is a bug.
"""

import json

import numpy as np
import pytest

from repro.cluster import routing
from repro.cluster.routing import (
    CheapestFirstPolicy,
    LeastLoadedPolicy,
    ReplicaView,
    RoundRobinPolicy,
    SlaAwarePolicy,
)
from repro.fpga.eventsim import PipelineSimulator, SimStage
from repro.memory import get_cache_policy
from repro.serving.arrivals import diurnal_trace, trace_arrivals
from repro.serving.queueing import BatchedServerSim


# ---------------------------------------------------------------------------
# Pipeline event simulator
# ---------------------------------------------------------------------------


def _jitter(i: int) -> float:
    # Integer-valued per-item latency: exact in float64, so the
    # vectorised and scalar paths must agree bit for bit.
    return float((i * 37) % 19 + 3)


PIPELINES = {
    "serial-only": [
        SimStage("lookup", latency_ns=40.0, ii_ns=40.0, serial=True),
    ],
    "pipelined": [
        SimStage("a", latency_ns=100.0, ii_ns=10.0),
        SimStage("b", latency_ns=80.0, ii_ns=25.0),
        SimStage("c", latency_ns=60.0, ii_ns=5.0),
    ],
    "serial-bottleneck": [
        SimStage("lookup", latency_ns=50.0, ii_ns=50.0, serial=True),
        SimStage("gemm", latency_ns=200.0, ii_ns=8.0),
        SimStage("sigmoid", latency_ns=30.0, ii_ns=8.0),
    ],
    "depth1-backpressure": [
        SimStage("fast", latency_ns=10.0, ii_ns=5.0, fifo_depth=1),
        SimStage("slow", latency_ns=90.0, ii_ns=60.0, fifo_depth=1),
        SimStage("sink", latency_ns=20.0, ii_ns=20.0, fifo_depth=1),
    ],
    "jittered-serial": [
        SimStage("lookup", latency_ns=_jitter, ii_ns=12.0, serial=True,
                 fifo_depth=4),
        SimStage("mlp", latency_ns=120.0, ii_ns=15.0, fifo_depth=4),
    ],
}


class TestEventsimParity:
    @pytest.mark.parametrize("name", sorted(PIPELINES))
    @pytest.mark.parametrize("items", [1, 2, 3, 7, 50, 200])
    @pytest.mark.parametrize("arrival_ii", [0.0, 35.0])
    def test_exact_timeline_parity(self, name, items, arrival_ii):
        sim = PipelineSimulator(PIPELINES[name])
        fast = sim.run(items, arrival_ii_ns=arrival_ii)
        slow = sim._run_scalar(items, arrival_ii_ns=arrival_ii)
        assert np.array_equal(fast.enter_ns, slow.enter_ns)
        assert np.array_equal(fast.leave_ns, slow.leave_ns)
        assert fast.stage_names == slow.stage_names


# ---------------------------------------------------------------------------
# Batched server
# ---------------------------------------------------------------------------


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
        slow = sim._run_scalar(arrivals)
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
