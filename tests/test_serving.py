"""Unit tests for the serving/SLA simulation substrate."""

import numpy as np
import pytest

from repro.serving.arrivals import (
    RateTrace,
    arrivals_for,
    bursty_trace,
    diurnal_trace,
    flash_crowd_trace,
    poisson_arrivals,
    segment,
    trace_arrivals,
    uniform_arrivals,
)
from repro.serving.queueing import (
    BatchedServerSim,
    PipelineServerSim,
    ServingResult,
)
from repro.serving.sla import SlaReport, sla_capacity_sweep


class _ShortfallRng:
    """An rng whose first exponential draw under-covers the horizon.

    Reproduces the pre-fix failure mode of ``poisson_arrivals``: the
    initial batch of gaps sums to less than the window, which used to
    leave the tail silently empty.
    """

    def __init__(self):
        self.calls = 0
        self._real = np.random.default_rng(0)

    def exponential(self, scale, size):
        self.calls += 1
        if self.calls == 1:
            # Sum = size * scale / 1000: far short of any horizon.
            return np.full(size, scale / 1000.0)
        return self._real.exponential(scale, size)


class TestArrivals:
    def test_poisson_rate(self):
        rng = np.random.default_rng(0)
        arrivals = poisson_arrivals(rng, rate_per_s=10_000, duration_s=1.0)
        assert arrivals.size == pytest.approx(10_000, rel=0.05)
        assert (np.diff(arrivals) > 0).all()
        assert arrivals.max() < 1e9

    def test_poisson_redraws_until_horizon_covered(self):
        rng = _ShortfallRng()
        arrivals = poisson_arrivals(rng, rate_per_s=1_000, duration_s=1.0)
        assert rng.calls > 1  # the shortfall forced at least one redraw
        assert arrivals.max() > 0.9e9  # the tail of the window is covered
        assert arrivals.max() < 1e9

    def test_poisson_tail_not_empty(self):
        # Statistical version of the same property: the last decile of
        # the window must see arrivals at any reasonable rate.
        for seed in range(5):
            rng = np.random.default_rng(seed)
            arrivals = poisson_arrivals(rng, rate_per_s=500, duration_s=1.0)
            assert (arrivals > 0.9e9).any()

    def test_uniform_spacing(self):
        arrivals = uniform_arrivals(rate_per_s=1000, duration_s=0.1)
        assert arrivals.size == 100
        np.testing.assert_allclose(np.diff(arrivals), 1e6)

    def test_uniform_count_is_rounded_not_truncated(self):
        # Any float error in 1e9/rate must not drop an arrival: the
        # count comes straight from rate * duration.
        assert uniform_arrivals(30, 0.1).size == 3
        for rate in (3, 7, 30, 49, 333, 999):
            for duration in (0.1, 0.25, 1.0):
                arrivals = uniform_arrivals(rate, duration)
                assert arrivals.size == round(rate * duration)
                assert arrivals.max(initial=0.0) < duration * 1e9

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            poisson_arrivals(rng, 0, 1.0)
        with pytest.raises(ValueError):
            uniform_arrivals(10, 0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rate_and_duration_rejected(self, value):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="duration_s must be"):
            poisson_arrivals(rng, 10.0, value)
        with pytest.raises(ValueError, match="rate_per_s must be"):
            poisson_arrivals(rng, value, 1.0)
        with pytest.raises(ValueError, match="duration_s must be"):
            uniform_arrivals(10.0, value)
        with pytest.raises(ValueError, match="duration_s must be"):
            segment(value, lambda t: 10.0)


class TestRateTrace:
    def test_constant_trace(self):
        trace = RateTrace.constant(1000, 2.0)
        assert trace.duration_s == 2.0
        assert trace.mean_rate == pytest.approx(1000)
        assert trace.peak_rate == 1000
        assert trace.rate_at(1.5) == 1000
        assert trace.rate_at(2.5) == 0.0
        assert trace.rate_at(-1.0) == 0.0

    def test_composition_and_scaling(self):
        trace = RateTrace.constant(100, 1.0).then(RateTrace.constant(300, 1.0))
        assert trace.duration_s == 2.0
        assert trace.mean_rate == pytest.approx(200)
        assert trace.rate_at(0.5) == 100
        assert trace.rate_at(1.5) == 300
        doubled = trace.scaled(2.0)
        assert doubled.mean_rate == pytest.approx(400)
        assert doubled.rate_at(1.5) == 600
        renormed = trace.with_mean(1000)
        assert renormed.mean_rate == pytest.approx(1000)
        assert renormed.duration_s == 2.0

    def test_trace_for_resolves_every_named_shape(self):
        from repro.serving.arrivals import TRACE_SHAPES, trace_for

        rng = np.random.default_rng(3)
        for shape in TRACE_SHAPES:
            trace = trace_for(shape, rng, 1000.0, 1.0)
            assert trace.duration_s == pytest.approx(1.0)
            assert trace.peak_rate >= 1000.0 or shape == "constant"
        with pytest.raises(ValueError, match="unknown trace shape"):
            trace_for("sawtooth", rng, 1000.0, 1.0)
        with pytest.raises(ValueError, match="rng"):
            trace_for("bursty", None, 1000.0, 1.0)

    def test_rates_at_matches_scalar_rate_at(self):
        trace = (
            diurnal_trace(1000, 1.0, amplitude=0.5)
            .then(RateTrace.constant(300, 0.5))
        )
        times = np.array([-0.5, 0.0, 0.25, 0.75, 1.0, 1.2, 1.5, 2.0])
        vectorised = trace.rates_at(times)
        assert vectorised.shape == times.shape
        for t, rate in zip(times, vectorised):
            assert rate == pytest.approx(trace.rate_at(float(t)))
        # Outside the horizon (and before 0) the rate is 0, like rate_at.
        assert vectorised[0] == 0.0 and vectorised[-1] == 0.0

    def test_scaled_rejects_non_positive_factor(self):
        # A zero factor used to slip through (the check was `< 0`) and
        # silently produced an empty arrival stream much further down.
        trace = RateTrace.constant(100, 1.0)
        for factor in (0.0, -1.0):
            with pytest.raises(ValueError, match="must be positive"):
                trace.scaled(factor)

    def test_with_mean_rejects_non_positive_target(self):
        trace = RateTrace.constant(100, 1.0)
        for mean in (0.0, -5.0):
            with pytest.raises(ValueError, match="must be positive"):
                trace.with_mean(mean)

    def test_concat(self):
        parts = [RateTrace.constant(10, 0.5) for _ in range(4)]
        trace = RateTrace.concat(parts)
        assert trace.duration_s == pytest.approx(2.0)
        assert len(trace.segments) == 4

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            RateTrace(())

    def test_segment_rejects_mean_above_supplied_peak(self):
        from repro.serving.arrivals import segment

        with pytest.raises(ValueError, match="exceeds its peak"):
            segment(1.0, lambda t: 100.0, peak_rate=50.0, mean_rate=100.0)
        # Sampled mean against a quoted exact peak may clamp (numerical).
        seg = segment(1.0, lambda t: 50.0, peak_rate=50.0)
        assert seg.mean_rate <= seg.peak_rate

    def test_diurnal_shape(self):
        trace = diurnal_trace(1000, 10.0, amplitude=0.5)
        assert trace.peak_rate == pytest.approx(1500)
        assert trace.mean_rate == pytest.approx(1000, rel=0.01)
        # Quarter period is the sinusoid crest.
        assert trace.rate_at(2.5) == pytest.approx(1500, rel=1e-6)
        with pytest.raises(ValueError):
            diurnal_trace(1000, 1.0, amplitude=1.0)

    def test_bursty_realisation(self):
        rng = np.random.default_rng(3)
        trace = bursty_trace(rng, 1000, 2.0)
        assert trace.duration_s == pytest.approx(2.0)
        assert 1000 <= trace.peak_rate <= 4000
        assert 1000 * 0.99 <= trace.mean_rate <= 4000
        # Deterministic given the seed.
        again = bursty_trace(np.random.default_rng(3), 1000, 2.0)
        assert [s.duration_s for s in again.segments] == [
            s.duration_s for s in trace.segments
        ]
        with pytest.raises(ValueError):
            bursty_trace(rng, 1000, 1.0, burst_rate_per_s=10)

    def test_flash_crowd_shape(self):
        trace = flash_crowd_trace(
            1000, 1.0, spike_rate_per_s=5000, spike_at_s=0.5, decay_s=0.1
        )
        assert trace.rate_at(0.25) == 1000
        assert trace.rate_at(0.5) == pytest.approx(5000, rel=1e-6)
        # One decay constant later the excess has dropped by ~1/e.
        assert trace.rate_at(0.6) == pytest.approx(
            1000 + 4000 * np.exp(-1), rel=0.01
        )
        with pytest.raises(ValueError):
            flash_crowd_trace(1000, 1.0, spike_at_s=2.0)

    def test_trace_arrivals_match_intensity(self):
        trace = diurnal_trace(20_000, 1.0, amplitude=0.8)
        arrivals = trace_arrivals(np.random.default_rng(5), trace)
        assert arrivals.size == pytest.approx(20_000, rel=0.05)
        assert arrivals.max() < 1e9
        # The crest half of the sinusoid must carry more arrivals.
        first_half = (arrivals < 0.5e9).sum()
        assert first_half > 0.6 * arrivals.size

    def test_arrivals_for_dispatch(self):
        rng = np.random.default_rng(0)
        for process in ("poisson", "uniform", "diurnal", "bursty", "flash"):
            arrivals = arrivals_for(process, rng, 5_000, 0.2)
            assert arrivals.size > 0
            assert arrivals.max() < 0.2e9
        with pytest.raises(ValueError, match="unknown arrival process"):
            arrivals_for("sawtooth", rng, 1000, 1.0)


class TestServingResult:
    def test_percentiles(self):
        arrivals = np.zeros(100)
        completions = np.arange(1, 101, dtype=np.float64) * 1e6  # 1..100 ms
        result = ServingResult(arrivals, completions)
        assert result.p50_ms == pytest.approx(50.5, rel=0.02)
        assert result.p95_ms == pytest.approx(95.0, rel=0.02)
        assert result.p99_ms == pytest.approx(99.0, rel=0.02)
        assert result.p999_ms == pytest.approx(99.9, rel=0.02)
        assert result.p50_ms <= result.p95_ms <= result.p99_ms <= result.p999_ms

    def test_causality_enforced(self):
        with pytest.raises(ValueError):
            ServingResult(np.array([10.0]), np.array([5.0]))

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ServingResult(np.empty(0), np.empty(0))

    def test_empty_stream_rejected_by_servers(self):
        batched = BatchedServerSim(lambda b: 1.0, batch_size=4)
        pipelined = PipelineServerSim(16.0, 3400.0)
        for server in (batched, pipelined):
            with pytest.raises(ValueError, match="empty"):
                server.run(np.empty(0))

    def test_sla_attainment(self):
        arrivals = np.zeros(100)
        completions = np.arange(1, 101, dtype=np.float64) * 1e6  # 1..100 ms
        result = ServingResult(arrivals, completions)
        assert result.sla_attainment(100.0) == 1.0
        assert result.sla_attainment(50.0) == pytest.approx(0.5)
        assert result.sla_attainment(0.5) == 0.0
        for slo_ms in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="slo_ms"):
                result.sla_attainment(slo_ms)
            with pytest.raises(ValueError, match="slo_ms"):
                result.compact(slo_ms=slo_ms)


class TestBatchedServer:
    def test_batch_assembly_wait_visible(self):
        """A lone query must wait out the batch timeout before dispatch."""
        server = BatchedServerSim(
            lambda b: 1.0, batch_size=64, batch_timeout_ms=10.0
        )
        result = server.run(np.array([0.0]))
        # 10 ms timeout + 1 ms execution.
        assert result.latencies_ms[0] == pytest.approx(11.0)

    def test_full_batch_dispatches_early(self):
        server = BatchedServerSim(
            lambda b: 1.0, batch_size=4, batch_timeout_ms=50.0
        )
        arrivals = np.array([0.0, 1.0, 2.0, 3.0])  # all within 4 ns
        result = server.run(arrivals)
        assert result.latencies_ms.max() < 2.0

    def test_serial_server_queues_batches(self):
        server = BatchedServerSim(
            lambda b: 10.0, batch_size=2, batch_timeout_ms=0.0
        )
        arrivals = np.array([0.0, 0.0, 0.0, 0.0])
        result = server.run(arrivals)
        # Second batch waits for the first: 10 ms then 20 ms.
        assert sorted(np.unique(np.round(result.latencies_ms))) == [10.0, 20.0]

    def test_latency_grows_with_load(self):
        server = BatchedServerSim(
            lambda b: 5.0 + 0.01 * b, batch_size=256, batch_timeout_ms=5.0
        )
        rng = np.random.default_rng(3)
        light = server.run(poisson_arrivals(rng, 1_000, 0.2))
        heavy = server.run(poisson_arrivals(rng, 80_000, 0.2))
        assert heavy.p99_ms > light.p99_ms

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchedServerSim(lambda b: 1.0, batch_size=0)


class TestBatchedServerDispatchRule:
    """Locks down the dispatch rule the serving lab builds on:
    dispatch at max(min(full_at, timeout_at), first_arrival, server_free),
    admitting everyone who has arrived by the dispatch instant."""

    def test_arrival_before_timeout_joins_first_batch(self):
        # A query arriving during the assembly window joins the pending
        # batch at its 10 ms timeout dispatch rather than starting a new
        # one.
        server = BatchedServerSim(
            lambda b: 50.0, batch_size=8, batch_timeout_ms=10.0
        )
        result = server.run(np.array([0.0, 1e6]))
        np.testing.assert_allclose(result.completions_ns, [60e6, 60e6])

    def test_server_busy_past_timeout_delays_dispatch(self):
        # Batch latency 50 ms; a second query arrives at 15 ms, after the
        # first batch dispatched at its 10 ms timeout.  Its own timeout
        # expires at 25 ms, but the server is busy until 60 ms — the
        # second batch dispatches then, not at the timeout.
        server = BatchedServerSim(
            lambda b: 50.0, batch_size=8, batch_timeout_ms=10.0
        )
        result = server.run(np.array([0.0, 15e6]))
        np.testing.assert_allclose(
            result.completions_ns, [60e6, 110e6], rtol=1e-12
        )
        assert result.latencies_ms[1] == pytest.approx(95.0)

    def test_backlog_refills_full_batches(self):
        # Eight simultaneous arrivals, batch 4, zero timeout: two full
        # batches back to back, the second waiting for the first.
        server = BatchedServerSim(
            lambda b: 10.0, batch_size=4, batch_timeout_ms=0.0
        )
        result = server.run(np.zeros(8))
        np.testing.assert_allclose(
            np.sort(result.latencies_ms), [10.0] * 4 + [20.0] * 4
        )

    def test_late_arrivals_join_before_dispatch(self):
        # With the server busy, queries that arrive during the backlog
        # join the next batch up to its capacity.
        server = BatchedServerSim(
            lambda b: 10.0, batch_size=4, batch_timeout_ms=0.0
        )
        arrivals = np.array([0.0, 2e6, 4e6, 6e6, 8e6])  # 0, 2, 4, 6, 8 ms
        result = server.run(arrivals)
        # First batch: the lone query at t=0 (timeout 0 fires instantly).
        assert result.completions_ns[0] == pytest.approx(10e6)
        # Everyone arriving before the 10 ms free-up joins batch two.
        np.testing.assert_allclose(result.completions_ns[1:], 20e6)

    def test_zero_timeout_single_query_pays_no_wait(self):
        server = BatchedServerSim(
            lambda b: 3.0, batch_size=64, batch_timeout_ms=0.0
        )
        result = server.run(np.array([5e6]))
        assert result.latencies_ms[0] == pytest.approx(3.0)

    def test_batch_never_exceeds_capacity(self):
        server = BatchedServerSim(
            lambda b: 1.0, batch_size=3, batch_timeout_ms=100.0
        )
        result = server.run(np.zeros(10))
        # Three full batches back to back; the leftover query is not
        # full, so it holds for the 100 ms timeout from its arrival.
        finishes = np.unique(np.round(result.completions_ns / 1e6))
        np.testing.assert_allclose(finishes, [1.0, 2.0, 3.0, 101.0])


class TestPipelineServer:
    def test_unloaded_latency_is_fill_latency(self):
        server = PipelineServerSim(single_item_latency_us=16.0, ii_ns=3400.0)
        result = server.run(np.array([0.0]))
        assert result.latencies_ms[0] == pytest.approx(0.016)

    def test_saturation_queues(self):
        server = PipelineServerSim(single_item_latency_us=16.0, ii_ns=3400.0)
        arrivals = np.zeros(1000)  # burst far above capacity
        result = server.run(arrivals)
        assert result.latencies_ms.max() > 1000 * 3400 / 1e6 * 0.9

    def test_below_capacity_latency_flat(self):
        server = PipelineServerSim(single_item_latency_us=16.0, ii_ns=3400.0)
        rng = np.random.default_rng(5)
        arrivals = poisson_arrivals(rng, 100_000, 0.1)  # 1/3 of capacity
        result = server.run(arrivals)
        assert result.p99_ms < 0.05

    def test_saturation_latency_tracks_backlog_depth(self):
        # Under a hard burst the k-th item starts k * II after the first:
        # the vectorised recurrence must reproduce that exactly.
        server = PipelineServerSim(single_item_latency_us=16.0, ii_ns=3400.0)
        result = server.run(np.zeros(100))
        expected = np.arange(100) * 3400.0 + 16_000.0
        np.testing.assert_allclose(np.sort(result.completions_ns), expected)

    def test_vectorised_matches_reference_recurrence(self):
        server = PipelineServerSim(single_item_latency_us=16.0, ii_ns=3400.0)
        rng = np.random.default_rng(11)
        arrivals = np.sort(rng.uniform(0, 1e7, size=500))
        result = server.run(arrivals)
        prev = -np.inf
        for t, completion in zip(arrivals, result.completions_ns):
            prev = max(t, prev + server.ii_ns)
            assert completion == pytest.approx(prev + server.latency_ns)

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineServerSim(0, 100)
        with pytest.raises(ValueError):
            PipelineServerSim(16, 0)


class TestSlaSweep:
    @pytest.fixture
    def reports(self):
        batched = BatchedServerSim(
            lambda b: 3.0 + 0.012 * b, batch_size=256, batch_timeout_ms=5.0
        )
        pipelined = PipelineServerSim(16.3, 3417.0)
        return sla_capacity_sweep(
            batched, pipelined, rates=(1_000, 20_000, 60_000, 200_000),
            duration_s=0.2,
        )

    def test_fpga_capacity_exceeds_cpu(self, reports):
        assert (
            reports["fpga"].sla_capacity_per_s
            > reports["cpu"].sla_capacity_per_s
        )

    def test_fpga_latency_microseconds_under_load(self, reports):
        fpga = reports["fpga"]
        for rate, p99 in zip(fpga.rates, fpga.p99_ms):
            if rate <= fpga.sla_capacity_per_s:
                assert p99 < 1.0  # sub-millisecond

    def test_rows_structure(self, reports):
        rows = reports["cpu"].rows()
        assert len(rows) == 4
        assert {"engine", "rate_per_s", "p50_ms", "p99_ms", "meets_sla"} <= set(
            rows[0]
        )

    def test_capacity_zero_when_never_meeting_sla(self):
        report = SlaReport(
            engine="x", sla_ms=1.0, rates=(10.0,), p50_ms=(5.0,), p99_ms=(9.0,)
        )
        assert report.sla_capacity_per_s == 0.0
