"""Tests for the trace-driven serving lab, SLA-aware fleet planning, the
Session wiring (serve_trace / sweep / fleet_sla), and the ``repro serve``
CLI verb."""

import json
from typing import ClassVar

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.deploy.capacity import SlaFleetPlan, plan_fleet_sla
from repro.serving.arrivals import RateTrace, diurnal_trace
from repro.serving.lab import (
    LoadCurve,
    LoadPoint,
    lab_seed,
    load_sweep,
    session_lab,
)


@pytest.fixture(scope="module")
def cpu_session():
    return repro.deploy_model("small", backend="cpu", max_rows=128)


@pytest.fixture(scope="module")
def fpga_session():
    return repro.deploy_model("small", backend="fpga", max_rows=128)


def _point(rate, p99, meets):
    return LoadPoint(
        rate_per_s=rate,
        utilisation=rate / 1000.0,
        queries=100,
        mean_ms=p99 / 2,
        p50_ms=p99 / 2,
        p95_ms=p99 * 0.9,
        p99_ms=p99,
        p999_ms=p99 * 1.1,
        tail_ms=p99,
        sla_attainment=1.0 if meets else 0.5,
        achieved_qps=rate,
        meets_slo=meets,
    )


class TestLabSeed:
    def test_stable_and_distinct(self):
        assert lab_seed(0, "cpu", "poisson", 1) == lab_seed(
            0, "cpu", "poisson", 1
        )
        seeds = {
            lab_seed(0, backend, process, i)
            for backend in ("cpu", "fpga")
            for process in ("poisson", "bursty")
            for i in range(3)
        }
        assert len(seeds) == 12
        assert lab_seed(0, "cpu") != lab_seed(1, "cpu")


class TestLoadCurve:
    def test_sla_capacity_and_knee(self):
        points = (
            _point(100, 1.0, True),
            _point(200, 1.5, True),
            _point(400, 2.0, True),
            _point(800, 10.0, False),  # > KNEE_FACTOR * 1.0
        )
        curve = LoadCurve(
            backend="x",
            process="poisson",
            slo_ms=5.0,
            slo_percentile=99.0,
            duration_s=0.1,
            points=points,
        )
        assert curve.sla_capacity_per_s == 400
        assert curve.knee_rate_per_s == 800
        as_dict = curve.as_dict()
        assert as_dict["sla_capacity_per_s"] == 400
        assert len(as_dict["points"]) == 4

    def test_no_knee_when_flat(self):
        points = (_point(100, 1.0, True), _point(200, 1.2, True))
        curve = LoadCurve("x", "poisson", 5.0, 99.0, 0.1, points)
        assert curve.knee_rate_per_s is None
        assert curve.sla_capacity_per_s == 200

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            LoadCurve("x", "poisson", 5.0, 99.0, 0.1, ())


class TestLoadSweep:
    def test_latency_grows_with_load(self, cpu_session):
        curve = load_sweep(
            cpu_session,
            process="poisson",
            utilisations=(0.2, 0.95),
            duration_s=0.05,
            seed=1,
        )
        assert len(curve.points) == 2
        assert curve.points[1].p99_ms > curve.points[0].p99_ms
        for point in curve.points:
            assert 0.0 <= point.sla_attainment <= 1.0
            assert point.p50_ms <= point.p99_ms <= point.p999_ms
            assert point.queries > 0
            # At the default p99 judgement the stored tail IS the p99.
            assert point.tail_ms == point.p99_ms

    def test_custom_percentile_judges_that_percentile(self, cpu_session):
        # The judged tail (meets_slo, knee detection) must use the exact
        # requested percentile, not a nearest stored column.
        curve = load_sweep(
            cpu_session,
            process="poisson",
            utilisations=(0.4,),
            duration_s=0.05,
            slo_percentile=90.0,
            seed=2,
        )
        point = curve.points[0]
        assert point.p50_ms < point.tail_ms < point.p99_ms
        assert point.meets_slo == (point.tail_ms <= curve.slo_ms)

    def test_deterministic(self, cpu_session):
        kwargs = {
            "process": "bursty",
            "utilisations": (0.5,),
            "duration_s": 0.05,
            "seed": 3,
        }
        first = load_sweep(cpu_session, **kwargs)
        second = load_sweep(cpu_session, **kwargs)
        assert first.as_dict() == second.as_dict()

    def test_absolute_rates_override_grid(self, fpga_session):
        curve = load_sweep(
            fpga_session, rates=(5_000, 50_000), duration_s=0.05
        )
        assert [p.rate_per_s for p in curve.points] == [5_000, 50_000]
        capacity = fpga_session.perf().throughput_items_per_s
        assert curve.points[0].utilisation == pytest.approx(5_000 / capacity)

    def test_pipeline_flat_below_capacity(self, fpga_session):
        curve = load_sweep(
            fpga_session,
            utilisations=(0.2, 0.8),
            duration_s=0.05,
            slo_ms=30.0,
        )
        for point in curve.points:
            assert point.p99_ms < 1.0  # microseconds, far under the SLO
            assert point.meets_slo

    def test_validation(self, cpu_session):
        with pytest.raises(ValueError, match="unknown arrival process"):
            load_sweep(cpu_session, process="sawtooth")
        with pytest.raises(ValueError, match="duration_s"):
            load_sweep(cpu_session, duration_s=0)
        with pytest.raises(ValueError, match="utilisations"):
            load_sweep(cpu_session, utilisations=())
        with pytest.raises(ValueError, match="rates"):
            load_sweep(cpu_session, rates=(0.0,))
        with pytest.raises(ValueError, match="slo_percentile"):
            load_sweep(cpu_session, slo_percentile=100.0)
        for slo_ms in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="slo_ms"):
                load_sweep(cpu_session, slo_ms=slo_ms)


class TestSessionLab:
    def test_structure(self, cpu_session):
        lab = session_lab(
            cpu_session,
            processes=("poisson", "diurnal"),
            utilisations=(0.3,),
            duration_s=0.05,
        )
        assert lab["backend"] == "cpu"
        assert set(lab["processes"]) == {"poisson", "diurnal"}
        for curve in lab["processes"].values():
            assert curve["points"]
            assert "sla_capacity_per_s" in curve

    def test_duplicate_process_rejected(self, cpu_session):
        with pytest.raises(ValueError, match="duplicate"):
            session_lab(cpu_session, processes=("poisson", "poisson"))


class TestPlanFleetSla:
    def test_loose_slo_matches_throughput_plan(self, fpga_session):
        base = fpga_session.fleet(1_000_000)
        plan = plan_fleet_sla(
            1_000_000, fpga_session, slo_ms=30.0, duration_s=0.05
        )
        assert isinstance(plan, SlaFleetPlan)
        assert plan.nodes == base.nodes
        assert plan.throughput_only_nodes == base.nodes
        assert not plan.slo_bound
        assert plan.observed_tail_ms <= 30.0

    def test_binding_slo_buys_strictly_more_nodes(self, cpu_session):
        base = cpu_session.fleet(1_000_000)
        plan = plan_fleet_sla(
            1_000_000, cpu_session, slo_ms=20.0, duration_s=0.05
        )
        assert plan.nodes > base.nodes
        assert plan.slo_bound
        assert plan.observed_tail_ms <= 20.0
        # More nodes means proportionally more dollars.
        assert plan.usd_per_hour > base.usd_per_hour

    def test_unattainable_slo_raises(self, cpu_session):
        with pytest.raises(ValueError, match="latency floor"):
            plan_fleet_sla(
                1_000_000,
                cpu_session,
                slo_ms=1.0,
                duration_s=0.02,
                max_nodes=4096,
            )

    def test_trace_shaped_load(self, cpu_session):
        trace = diurnal_trace(1_000, 0.05, amplitude=0.8)
        plan = plan_fleet_sla(
            1_000_000,
            cpu_session,
            slo_ms=30.0,
            trace=trace,
            duration_s=0.05,
        )
        assert plan.nodes >= plan.throughput_only_nodes

    def test_as_dict_round_trip(self, cpu_session):
        plan = plan_fleet_sla(
            500_000, cpu_session, slo_ms=30.0, duration_s=0.05
        )
        out = plan.as_dict()
        for key in (
            "engine",
            "nodes",
            "slo_ms",
            "slo_percentile",
            "process",
            "throughput_only_nodes",
            "observed_tail_ms",
            "sla_attainment",
            "slo_bound",
        ):
            assert key in out
        json.dumps(out)  # JSON-serialisable

    def test_validation(self, cpu_session):
        for slo_ms in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="slo_ms"):
                plan_fleet_sla(1000, cpu_session, slo_ms=slo_ms)


class TestSessionWiring:
    def test_serve_trace(self, cpu_session):
        trace = RateTrace.constant(20_000, 0.05)
        result = cpu_session.serve_trace(trace, seed=5)
        assert result.count == pytest.approx(1_000, rel=0.25)
        again = cpu_session.serve_trace(trace, seed=5)
        assert result.count == again.count

    def test_sweep_delegates_to_lab(self, fpga_session):
        curve = fpga_session.sweep(
            process="poisson", utilisations=(0.5,), duration_s=0.05
        )
        assert isinstance(curve, LoadCurve)
        assert curve.backend == "fpga"

    def test_fleet_sla_delegates(self, fpga_session):
        plan = fpga_session.fleet_sla(
            100_000, slo_ms=30.0, duration_s=0.05
        )
        assert isinstance(plan, SlaFleetPlan)

    def test_empty_stream_rejected(self, cpu_session):
        with pytest.raises(ValueError, match="empty arrival stream"):
            cpu_session.serve([])
        with pytest.raises(ValueError, match="empty arrival stream"):
            cpu_session.serve(np.empty(0))


class TestCliServe:
    ARGS: ClassVar[list[str]] = [
        "serve", "small", "--max-rows", "128", "--duration-s", "0.02",
        "--backend", "cpu", "--backend", "fpga",
        "--utilisation", "0.3", "--utilisation", "0.9",
    ]

    def test_json_output_shape(self, capsys):
        assert main([*self.ARGS, "--json"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert set(payload["backends"]) == {"cpu", "fpga"}
        assert payload["processes"] == ["poisson", "diurnal", "bursty"]
        for lab in payload["backends"].values():
            assert set(lab["processes"]) == {"poisson", "diurnal", "bursty"}
            for curve in lab["processes"].values():
                assert len(curve["points"]) == 2
            assert lab["fleet"]["nodes"] >= 1
            assert lab["fleet_sla"]["nodes"] >= lab["fleet"]["nodes"]

    def test_json_is_deterministic(self, capsys):
        assert main([*self.ARGS, "--json", "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert main([*self.ARGS, "--json", "--seed", "9"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_human_output(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "serving lab" in out
        assert "SLA capacity" in out
        assert "fleet @" in out

    def test_unknown_process_exits_2(self, capsys):
        assert main([*self.ARGS, "--process", "sawtooth"]) == 2
        assert "unknown arrival process" in capsys.readouterr().err

    def test_unknown_model_exits_2(self, capsys):
        assert main(["serve", "medium"]) == 2

    def test_non_finite_qps_exits_2(self, capsys):
        # Before, --qps inf exited 1 with an OverflowError traceback and
        # --qps nan exited 2 without naming the field.
        for value in ("nan", "inf"):
            assert main(
                ["serve", "small", "--max-rows", "128", "--duration-s",
                 "0.02", "--backend", "fpga", "--utilisation", "0.3",
                 "--process", "poisson", "--qps", value]
            ) == 2
            err = capsys.readouterr().err
            assert "target_qps" in err
            assert "Traceback" not in err

    def test_non_finite_slo_exits_2(self, capsys):
        # Before, both exited 0 and printed "slo_ms": NaN (not JSON).
        for value in ("nan", "inf"):
            assert main(
                ["serve", "small", "--max-rows", "128", "--duration-s",
                 "0.02", "--backend", "fpga", "--utilisation", "0.3",
                 "--process", "poisson", "--slo-ms", value, "--json"]
            ) == 2
            captured = capsys.readouterr()
            assert "slo_ms" in captured.err
            assert "Traceback" not in captured.err
            assert captured.out == ""

    def test_explicit_undeployable_backend_exits_2(self, capsys):
        # fpga-compressed needs --max-rows; asked for by name, the
        # failure is fatal.
        assert main(
            ["serve", "small", "--backend", "fpga-compressed",
             "--duration-s", "0.02", "--utilisation", "0.3"]
        ) == 2

    def test_default_backend_sweep_skips_undeployable(self, capsys):
        # Without --max-rows the full small model cannot deploy on
        # fpga-compressed (256 MiB materialisation limit); the default
        # all-backends sweep must skip it and still succeed.
        assert main(
            ["serve", "small", "--duration-s", "0.01",
             "--utilisation", "0.3", "--process", "poisson", "--json"]
        ) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert "fpga-compressed" not in payload["backends"]
        assert {"cpu", "fpga", "gpu", "nmp"} <= set(payload["backends"])
        assert "skipped" in captured.err

    def test_unattainable_slo_reported_not_fatal(self, capsys):
        # A 1 ms SLO is below the batched CPU engine's latency floor; the
        # lab still completes and records the absence of an SLA plan.
        assert main(
            ["serve", "small", "--max-rows", "128", "--duration-s", "0.02",
             "--backend", "cpu", "--utilisation", "0.3",
             "--process", "poisson", "--slo-ms", "1.0", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backends"]["cpu"]["fleet_sla"] is None
