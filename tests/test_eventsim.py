"""Unit tests for the discrete-event pipeline simulator."""

import numpy as np
import pytest

from repro.experiments.common import accelerator
from repro.fpga.eventsim import (
    PipelineSimulator,
    SimStage,
    validate_against_analytical,
)
from repro.fpga.pipeline import PipelineModel, PipelineStage


def const(latency):
    return lambda i: latency


class TestSimStage:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimStage("s", const(10), ii_ns=-1)
        with pytest.raises(ValueError):
            SimStage("s", const(10), ii_ns=5, fifo_depth=0)


class TestPipelineSimulator:
    def test_single_stage_serial(self):
        sim = PipelineSimulator(
            [SimStage("s", const(100.0), ii_ns=100.0, serial=True)]
        )
        result = sim.run(10)
        assert result.makespan_ns == pytest.approx(1000.0)
        assert result.first_item_latency_ns == pytest.approx(100.0)

    def test_pipelined_stage_overlaps(self):
        sim = PipelineSimulator([SimStage("s", const(100.0), ii_ns=10.0)])
        result = sim.run(10)
        # Last item starts at 90, finishes at 190.
        assert result.makespan_ns == pytest.approx(190.0)

    def test_bottleneck_sets_throughput(self):
        sim = PipelineSimulator(
            [
                SimStage("fast", const(50.0), ii_ns=10.0),
                SimStage("slow", const(100.0), ii_ns=100.0),
                SimStage("mid", const(60.0), ii_ns=30.0),
            ]
        )
        result = sim.run(200)
        assert result.steady_state_ii_ns == pytest.approx(100.0, rel=0.01)

    def test_backpressure_with_shallow_fifos(self):
        """A slow downstream stage must stall the upstream through a
        depth-1 FIFO: upstream cannot run ahead unboundedly."""
        sim = PipelineSimulator(
            [
                SimStage("fast", const(10.0), ii_ns=10.0, fifo_depth=1),
                SimStage("slow", const(100.0), ii_ns=100.0),
            ]
        )
        result = sim.run(50)
        # Throughput is pinned to the slow stage despite the fast front.
        assert result.steady_state_ii_ns == pytest.approx(100.0, rel=0.02)
        # The fast stage is mostly idle (blocked), not buffering.
        assert result.stage_busy_fraction(0) < 0.25

    def test_arrival_spacing_limits_rate(self):
        sim = PipelineSimulator([SimStage("s", const(10.0), ii_ns=10.0)])
        result = sim.run(100, arrival_ii_ns=50.0)
        assert result.steady_state_ii_ns == pytest.approx(50.0, rel=0.02)

    def test_monotone_event_times(self):
        sim = PipelineSimulator(
            [
                SimStage("a", const(30.0), ii_ns=20.0),
                SimStage("b", const(70.0), ii_ns=60.0),
            ]
        )
        result = sim.run(64)
        assert (result.leave_ns >= result.enter_ns).all()
        # Within a stage, items are processed in order.
        assert (np.diff(result.enter_ns, axis=1) >= 0).all()

    def test_items_validation(self):
        sim = PipelineSimulator([SimStage("s", const(1.0), ii_ns=1.0)])
        with pytest.raises(ValueError):
            sim.run(0)

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError):
            PipelineSimulator([])


class TestCrossValidation:
    """The analytical pipeline model must agree with the simulator."""

    def test_synthetic_pipeline(self):
        model = PipelineModel(
            [
                PipelineStage("lookup", 440.0, 440.0),
                PipelineStage("fc0", 2900.0, 2400.0),
                PipelineStage("fc1", 3950.0, 3400.0),
                PipelineStage("fc2", 3950.0, 3400.0),
            ]
        )
        errors = validate_against_analytical(model, items=512)
        assert max(errors.values()) < 0.02

    @pytest.mark.parametrize("name", ["small", "large", "dlrm-rmc2"])
    @pytest.mark.parametrize("precision", ["fixed16", "fixed32", "fp32"])
    def test_production_accelerator_pipelines(self, name, precision):
        """Every production build's closed form is simulator-exact: the
        simulated II, first-item latency and pacing stages agree with
        the ``FpgaPerformance`` that every FPGA number is read from."""
        # Only the order of float summation differs between the two.
        rel_tol = 1e-9
        acc = accelerator(name, precision)
        perf = acc.performance()
        validate_against_analytical(acc.pipeline(), items=256, rel_tol=rel_tol)
        sim = PipelineSimulator.from_model(acc.pipeline()).run(256)
        assert sim.steady_state_ii_ns == pytest.approx(perf.ii_ns, rel=rel_tol)
        assert sim.first_item_latency_ns == pytest.approx(
            perf.single_item_latency_us * 1e3, rel=rel_tol
        )
        pacers = sim.paced_stages([ii for _, _, ii in perf.stages], rel_tol)
        assert perf.bottleneck_stage in pacers
        # Stages sharing the top II pace too (small's fc1 and fc2 GEMMs);
        # no other stage does.
        assert set(pacers) == {
            stage for stage, _, ii in perf.stages if ii == perf.ii_ns
        }

    def test_divergence_detected(self):
        """A pipeline the closed form cannot describe (depth-1 FIFO with a
        huge latency/II mismatch) must be flagged, not silently accepted."""
        model = PipelineModel(
            [
                PipelineStage("a", 1000.0, 10.0),
                PipelineStage("b", 1000.0, 10.0),
            ]
        )
        # With a depth-1 FIFO, stage a cannot initiate item i until b has
        # accepted item i-1 (1000 ns later), so the real II is ~1000 ns,
        # not the analytical 10 ns.
        with pytest.raises(AssertionError):
            validate_against_analytical(model, items=64, fifo_depth=1)


def with_lookup_latency(pipe, latency, fifo_depth=8):
    """``pipe`` with a serial first (lookup) stage of per-item
    ``latency(i)``, every FIFO ``fifo_depth`` deep."""
    lookup, *rest = pipe.stages
    return PipelineSimulator(
        [
            SimStage(lookup.name, latency, lookup.ii_ns, fifo_depth, serial=True),
            *(SimStage(s.name, s.latency_ns, s.ii_ns, fifo_depth) for s in rest),
        ]
    )


class TestLookupJitter:
    def test_jitter_absorbed_by_fifos(self):
        """Variable lookup latency below the GEMM bottleneck must not
        change steady-state throughput (the Figure 7 flat region, now
        verified under jitter instead of worst-case)."""
        pipe = accelerator("small", "fixed16").pipeline()
        rng = np.random.default_rng(0)
        base = pipe.stages[0].latency_ns
        jitter = rng.uniform(0.5 * base, 1.5 * base, size=512)
        sim = with_lookup_latency(pipe, lambda i: float(jitter[i]))
        result = sim.run(512)
        assert result.steady_state_ii_ns == pytest.approx(pipe.ii_ns, rel=0.02)

    def test_slow_lookups_dominate(self):
        pipe = accelerator("small", "fixed16").pipeline()
        slow = pipe.ii_ns * 3.0
        result = with_lookup_latency(pipe, const(slow)).run(256)
        assert result.steady_state_ii_ns == pytest.approx(slow, rel=0.02)
