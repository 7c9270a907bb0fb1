"""Tests for the telemetry plane: digests, metrics, exporters, spans."""

import json

import numpy as np
import pytest

from repro.runtime import deploy_model
from repro.serving.arrivals import poisson_arrivals
from repro.serving.lab import lab_seed
from repro.telemetry import (
    EXACT_LIMIT,
    QuantileDigest,
    RequestSpan,
    SpanRecorder,
    Telemetry,
    UnknownExporterError,
    available_exporters,
    exact_quantile,
    get_exporter,
    register_exporter,
)

QS = (50.0, 90.0, 99.0, 99.9)


def digest_of(values):
    d = QuantileDigest()
    d.add_many(np.asarray(values, dtype=np.float64))
    return d


def rel_err(estimate, exact):
    if exact == 0:
        return abs(estimate)
    return abs(estimate - exact) / abs(exact)


# ---------------------------------------------------------------------------
# exact_quantile — the shared rank convention
# ---------------------------------------------------------------------------


class TestExactQuantile:
    def test_matches_numpy_percentile(self, rng):
        values = rng.lognormal(0.0, 2.0, size=5000)
        for q in QS:
            assert exact_quantile(values, q) == float(
                np.percentile(values, q)
            )

    def test_sequence_q_returns_array(self, rng):
        values = rng.normal(10.0, 1.0, size=100)
        out = exact_quantile(values, QS)
        assert isinstance(out, np.ndarray)
        np.testing.assert_array_equal(
            out, np.percentile(values, np.asarray(QS))
        )

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="at least one value"):
            exact_quantile([], 50.0)


# ---------------------------------------------------------------------------
# QuantileDigest — accuracy, merging, serialisation
# ---------------------------------------------------------------------------


class TestDigestExactRegime:
    def test_small_samples_bit_exact(self, rng):
        values = rng.lognormal(1.0, 1.5, size=EXACT_LIMIT)
        d = digest_of(values)
        assert d.is_exact
        for q in (0.0, *QS, 100.0):
            assert d.quantile(q) == float(np.percentile(values, q))

    def test_spill_at_limit_plus_one(self, rng):
        values = rng.lognormal(1.0, 1.5, size=EXACT_LIMIT + 1)
        d = digest_of(values)
        assert not d.is_exact

    def test_empty_digest_raises(self):
        d = QuantileDigest()
        with pytest.raises(ValueError, match="empty digest"):
            d.quantile(50.0)
        with pytest.raises(ValueError, match="empty digest"):
            d.mean

    def test_rejects_non_finite(self):
        d = QuantileDigest()
        with pytest.raises(ValueError, match="finite"):
            d.add_many([1.0, float("nan")])
        with pytest.raises(ValueError, match="finite"):
            d.add(float("inf"))

    def test_rejects_out_of_range_q(self):
        d = digest_of([1.0, 2.0])
        with pytest.raises(ValueError, match="q must be in"):
            d.quantile(101.0)


class TestDigestErrorBounds:
    """Relative error stays inside 1% on adversarial distributions."""

    def test_heavy_tailed(self, rng):
        values = rng.pareto(1.2, size=200_000) + 1.0
        d = digest_of(values)
        for q in QS:
            exact = float(np.percentile(values, q))
            assert rel_err(d.quantile(q), exact) < 0.01

    def test_lognormal_wide(self, rng):
        values = rng.lognormal(0.0, 3.0, size=100_000)
        d = digest_of(values)
        for q in QS:
            exact = float(np.percentile(values, q))
            assert rel_err(d.quantile(q), exact) < 0.01

    def test_constant_distribution(self):
        values = np.full(10_000, 7.25)
        d = digest_of(values)
        for q in (0.0, *QS, 100.0):
            assert rel_err(d.quantile(q), 7.25) < 0.01

    def test_two_point_distribution(self):
        # 90% at 1 ms, 10% at 100 ms: every quantile must resolve to
        # (near) one of the two atoms, never a smeared in-between value
        # more than a bin away.
        values = np.concatenate([np.ones(90_000), np.full(10_000, 100.0)])
        d = digest_of(values)
        assert rel_err(d.quantile(50.0), 1.0) < 0.01
        assert rel_err(d.quantile(99.0), 100.0) < 0.01

    def test_zero_and_subrange_values(self):
        # Zeros and sub-MIN_TRACKED values land in the underflow bin and
        # quantiles stay inside the observed [min, max].
        values = np.concatenate([np.zeros(1000), np.full(1000, 1e-9)])
        d = digest_of(values)
        assert d.quantile(0.0) == 0.0
        assert 0.0 <= d.quantile(50.0) <= 1e-9

    def test_extremes_report_observed_min_max(self, rng):
        values = rng.lognormal(0.0, 2.0, size=50_000)
        d = digest_of(values)
        assert d.quantile(0.0) == float(values.min())
        assert d.quantile(100.0) == float(values.max())

    def test_overflow_bin_clamped_to_observed_max(self):
        values = np.full(10_000, 2e7)  # above MAX_TRACKED
        d = digest_of(values)
        assert d.quantile(99.0) == 2e7
        assert d.quantile(100.0) == 2e7


class TestDigestMerge:
    def test_merge_equals_single_stream(self, rng):
        values = rng.lognormal(0.0, 2.0, size=30_000)
        one = digest_of(values)
        a, b = digest_of(values[:11_000]), digest_of(values[11_000:])
        merged = a.merge(b)
        assert merged.count == one.count
        assert merged.sum == pytest.approx(one.sum)
        for q in QS:
            assert merged.quantile(q) == one.quantile(q)

    def test_merge_associative_and_commutative(self, rng):
        chunks = [
            digest_of(rng.lognormal(0.0, 2.0, size=5000)) for _ in range(3)
        ]
        a, b, c = chunks
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        swapped = c.merge(a).merge(b)
        for q in QS:
            assert left.quantile(q) == right.quantile(q)
            assert left.quantile(q) == swapped.quantile(q)

    def test_order_invariance_of_observation(self, rng):
        values = rng.lognormal(0.0, 2.0, size=20_000)
        forward = digest_of(values)
        backward = digest_of(values[::-1])
        for q in QS:
            assert forward.quantile(q) == backward.quantile(q)

    def test_exact_merge_stays_exact_within_budget(self):
        a = digest_of(np.arange(100, dtype=np.float64))
        b = digest_of(np.arange(100, 200, dtype=np.float64))
        merged = a.merge(b)
        assert merged.is_exact
        combined = np.arange(200, dtype=np.float64)
        for q in QS:
            assert merged.quantile(q) == float(np.percentile(combined, q))

    def test_merge_does_not_mutate_inputs(self, rng):
        a = digest_of(rng.lognormal(0.0, 1.0, size=10_000))
        b = digest_of(rng.lognormal(0.0, 1.0, size=10_000))
        before = a.quantile(99.0)
        a.merge(b)
        assert a.quantile(99.0) == before
        assert a.count == 10_000


class TestDigestSerialisation:
    def test_round_trip_exact(self, rng):
        d = digest_of(rng.lognormal(0.0, 1.0, size=100))
        clone = QuantileDigest.from_dict(d.to_dict())
        for q in QS:
            assert clone.quantile(q) == d.quantile(q)

    def test_round_trip_binned(self, rng):
        d = digest_of(rng.lognormal(0.0, 2.0, size=50_000))
        clone = QuantileDigest.from_dict(d.to_dict())
        assert clone.count == d.count
        assert clone.min == d.min and clone.max == d.max
        for q in (0.0, *QS, 100.0):
            assert clone.quantile(q) == d.quantile(q)

    def test_serialised_form_is_stable_json(self, rng):
        values = rng.lognormal(0.0, 2.0, size=5000)
        one = json.dumps(digest_of(values).to_dict(), sort_keys=True)
        two = json.dumps(digest_of(values).to_dict(), sort_keys=True)
        assert one == two

    def test_round_trip_rejects_wrong_grid(self):
        payload = digest_of([1.0, 2.0]).to_dict()
        payload["ratio"] = 1.01
        with pytest.raises(ValueError, match="different bin grid"):
            QuantileDigest.from_dict(payload)

    def test_round_trip_rejects_count_mismatch(self):
        payload = digest_of([1.0, 2.0]).to_dict()
        payload["count"] = 5
        with pytest.raises(ValueError, match="count mismatch"):
            QuantileDigest.from_dict(payload)


def _reference_add_many(digest, values):
    """The scalar reference :meth:`QuantileDigest.add_many` replaced:
    one value at a time through the same edge grid, verbatim."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    for value in arr:
        digest.add_many(np.asarray([value], dtype=np.float64))


class TestAddManyScalarParity:
    """The vectorised path against its scalar parity reference."""

    def test_add_many_matches_scalar_reference(self, rng):
        values = np.concatenate(
            [
                rng.lognormal(0.0, 2.0, size=2000),
                np.zeros(10),
                np.full(10, 2e7),  # overflow
                np.full(10, 1e-9),  # underflow
            ]
        )
        fast = QuantileDigest()
        fast.add_many(values)
        slow = QuantileDigest()
        _reference_add_many(slow, values)
        assert fast.count == slow.count
        # Summation order differs (numpy pairwise vs sequential), so the
        # running sum matches only to float tolerance; the bin counts —
        # what quantiles are computed from — must match exactly.
        assert fast.sum == pytest.approx(slow.sum)
        fast_dict, slow_dict = fast.to_dict(), slow.to_dict()
        fast_dict.pop("sum"), slow_dict.pop("sum")
        assert fast_dict == slow_dict
        for q in (0.0, *QS, 100.0):
            assert fast.quantile(q) == slow.quantile(q)


# ---------------------------------------------------------------------------
# Metrics registry + exporters
# ---------------------------------------------------------------------------


class TestMetricRegistry:
    def test_counter_get_or_create(self):
        hub = Telemetry()
        hub.metrics.counter("a.b").inc()
        hub.metrics.counter("a.b").inc(2.0)
        assert hub.metrics.counter("a.b").value == 3.0

    def test_counter_rejects_negative(self):
        hub = Telemetry()
        with pytest.raises(ValueError, match=">= 0"):
            hub.metrics.counter("a").inc(-1.0)

    def test_kind_conflict_fails_loudly(self):
        hub = Telemetry()
        hub.metrics.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            hub.metrics.gauge("x")

    def test_snapshot_sorted_and_folded(self):
        hub = Telemetry()
        hub.metrics.counter("b").inc()
        hub.metrics.counter("a").inc()
        hub.metrics.gauge("g").set(4.5)
        hub.metrics.histogram("h").observe_many([1.0, 2.0, 3.0])
        snap = hub.snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        assert snap["gauges"]["g"] == 4.5
        hist = snap["histograms"]["h"]
        assert hist["count"] == 3
        assert hist["p50"] == 2.0
        assert snap["spans"] is None

    def test_empty_histogram_snapshot_is_null_stats(self):
        hub = Telemetry()
        hub.metrics.histogram("h")
        hist = hub.snapshot()["histograms"]["h"]
        assert hist["count"] == 0
        assert hist["p99"] is None


class TestExporterRegistry:
    def test_builtins_registered_sorted(self):
        names = available_exporters()
        assert names == tuple(sorted(names))
        assert {"json", "prometheus-text", "table"} <= set(names)

    def test_unknown_exporter_names_available(self):
        with pytest.raises(UnknownExporterError) as err:
            get_exporter("nope")
        for name in available_exporters():
            assert name in str(err.value)

    def test_register_rejects_duplicates_without_replace(self):
        exporter = get_exporter("json")
        with pytest.raises(ValueError, match="already registered"):
            register_exporter(exporter)
        register_exporter(exporter, replace=True)  # idempotent with flag

    def test_json_exporter_deterministic(self):
        hub = Telemetry()
        hub.metrics.counter("c").inc(7)
        hub.metrics.histogram("h").observe_many([1.0, 5.0, 9.0])
        assert hub.render("json") == hub.render("json")
        payload = json.loads(hub.render("json"))
        assert payload["counters"]["c"] == 7.0

    def test_prometheus_text_shape(self):
        hub = Telemetry()
        hub.metrics.counter("serve.requests.fpga").inc(3)
        hub.metrics.gauge("nodes").set(2)
        hub.metrics.histogram("serve.latency_ms.fpga").observe_many(
            [1.0, 2.0, 4.0]
        )
        text = hub.render("prometheus-text")
        assert "# TYPE repro_serve_requests_fpga_total counter" in text
        assert "repro_serve_requests_fpga_total 3.0" in text
        assert 'quantile="0.99"' in text
        assert "repro_serve_latency_ms_fpga_count 3" in text

    def test_table_exporter_lists_all_sections(self):
        hub = Telemetry()
        hub.metrics.counter("c").inc()
        hub.metrics.gauge("g").set(1)
        hub.metrics.histogram("h").observe(2.0)
        text = hub.render("table")
        for header in ("counters:", "gauges:", "histograms:"):
            assert header in text


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class TestSpans:
    def test_span_seed_deterministic_and_sensitive(self):
        # Sampling is seeded by lab_seed over the recorder seed and the
        # stream tag, like every other simulated stream.
        def sample(seed, *stream):
            return SpanRecorder(sample_rate=0.01, seed=seed).sample_indices(
                10_000, *stream
            )

        rng = np.random.default_rng(lab_seed(7, "serve", "fpga"))
        expected = np.unique(rng.integers(0, 10_000, size=100))
        np.testing.assert_array_equal(sample(7, "serve", "fpga"), expected)
        assert not np.array_equal(sample(8, "serve", "fpga"), expected)
        assert not np.array_equal(sample(7, "serve", "gpu"), expected)

    def test_sample_indices_deterministic(self):
        a = SpanRecorder(sample_rate=0.01, seed=7)
        b = SpanRecorder(sample_rate=0.01, seed=7)
        np.testing.assert_array_equal(
            a.sample_indices(100_000, "serve", "fpga", 0),
            b.sample_indices(100_000, "serve", "fpga", 0),
        )
        # A different stream tag draws a different sample.
        assert not np.array_equal(
            a.sample_indices(100_000, "serve", "fpga", 0),
            a.sample_indices(100_000, "serve", "fpga", 1),
        )

    def test_sample_indices_respects_rate_and_budget(self):
        recorder = SpanRecorder(sample_rate=0.001, max_spans=16, seed=0)
        indices = recorder.sample_indices(1_000_000, "s")
        assert len(indices) <= 16
        assert recorder.sample_indices(0, "empty").size == 0

    def test_record_enforces_budget(self):
        recorder = SpanRecorder(sample_rate=1.0, max_spans=2, seed=0)
        span = RequestSpan(
            source="serve:fpga:0",
            request_index=0,
            arrival_ns=0.0,
            phases=(("service", 10.0),),
        )
        assert recorder.record(span)
        assert recorder.record(span)
        assert not recorder.record(span)
        assert len(recorder.spans) == 2

    def test_span_validates_phases(self):
        with pytest.raises(ValueError, match="unknown span phase"):
            RequestSpan(
                source="s", request_index=0, arrival_ns=0.0,
                phases=(("teleport", 1.0),),
            )
        with pytest.raises(ValueError, match="negative"):
            RequestSpan(
                source="s", request_index=0, arrival_ns=0.0,
                phases=(("service", -1.0),),
            )

    def test_serve_records_deterministic_spans(self, rng):
        arrivals = poisson_arrivals(rng, 50_000.0, 0.05)

        def spans_for():
            session = deploy_model(
                "small", backend="cpu", max_rows=256, seed=7
            )
            hub = Telemetry(
                spans=SpanRecorder(sample_rate=0.01, seed=7)
            )
            session.serve(arrivals, telemetry=hub)
            return [span.as_dict() for span in hub.spans.spans]

        first, second = spans_for(), spans_for()
        assert first  # the rate guarantees at least one sampled span
        assert first == second
        for span in first:
            assert span["source"].startswith("serve:cpu:")
            assert set(span["phases"]) <= {
                "route-decision", "queue-wait", "service",
                "tier-lookup", "gather",
            }


# ---------------------------------------------------------------------------
# Serving integration — observation must not perturb results
# ---------------------------------------------------------------------------


class TestServeObservation:
    def test_serve_results_identical_with_and_without_telemetry(self, rng):
        arrivals = poisson_arrivals(rng, 100_000.0, 0.02)
        session = deploy_model("small", backend="cpu", max_rows=256, seed=7)
        off = session.serve(arrivals, telemetry=False)
        on = session.serve(arrivals)
        np.testing.assert_array_equal(off.latencies_ms, on.latencies_ms)

    def test_serve_populates_default_hub(self, rng):
        arrivals = poisson_arrivals(rng, 100_000.0, 0.02)
        session = deploy_model("small", backend="cpu", max_rows=256, seed=7)
        session.serve(arrivals)
        hub = session.telemetry
        count = hub.metrics.counter("serve.requests.cpu").value
        assert count == arrivals.size
        digest = hub.metrics.histogram("serve.latency_ms.cpu").digest
        assert digest.count == arrivals.size

    def test_digest_tail_within_one_percent_of_exact(self, rng):
        arrivals = poisson_arrivals(rng, 200_000.0, 0.05)
        session = deploy_model("small", backend="cpu", max_rows=256, seed=7)
        result = session.serve(arrivals)
        digest = session.telemetry.metrics.histogram(
            "serve.latency_ms.cpu"
        ).digest
        for q in (50.0, 99.0, 99.9):
            exact = float(exact_quantile(result.latencies_ms, q))
            assert rel_err(digest.quantile(q), exact) < 0.01

    def test_compact_drops_arrays(self, rng):
        arrivals = poisson_arrivals(rng, 100_000.0, 0.02)
        session = deploy_model("small", backend="cpu", max_rows=256, seed=7)
        result = session.serve(arrivals, telemetry=False)
        summary = result.compact(slo_ms=30.0)
        assert summary.queries == result.count
        assert summary.p99_ms == result.p99_ms
        assert not hasattr(summary, "latencies_ms")
