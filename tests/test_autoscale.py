"""Tests for the autoscaling control plane (``repro.autoscale``)."""

import json
from typing import ClassVar

import pytest

import repro
from repro.autoscale import (
    AutoscaleObservation,
    PredictiveTraceScaler,
    QueueDepthScaler,
    ReactiveUtilisationScaler,
    SlaFeedbackScaler,
    StaticScaler,
    UnknownScalerError,
    available_scalers,
    get_scaler,
    register_scaler,
    simulate_autoscale,
)
from repro.cli import main
from repro.serving.arrivals import RateTrace, diurnal_trace

MAX_ROWS = 128


@pytest.fixture(scope="module")
def gpu_session():
    return repro.deploy_model("small", backend="gpu", max_rows=MAX_ROWS)


@pytest.fixture(scope="module")
def fpga_session():
    return repro.deploy_model("small", backend="fpga", max_rows=MAX_ROWS)


def observation(**overrides):
    """A hand-built observation around sane defaults."""
    base = {
        "window": 3,
        "t_s": 0.15,
        "interval_s": 0.05,
        "nodes": 10,
        "pending_nodes": 0,
        "offered_rate_per_s": 600_000.0,
        "utilisation": 0.6,
        "queue_depth": 1000.0,
        "mean_ms": 20.0,
        "tail_ms": 25.0,
        "sla_attainment": 1.0,
        "slo_ms": 30.0,
        "slo_percentile": 99.0,
        "per_node_qps": 100_000.0,
        "service_ms": 20.0,
        "min_nodes": 1,
        "max_nodes": 1_000_000,
        "provision_delay_s": 0.05,
        "trace": RateTrace.constant(600_000.0, 1.0),
    }
    base.update(overrides)
    return AutoscaleObservation(**base)


class TestRegistry:
    def test_builtins_registered(self):
        assert available_scalers() == (
            "predictive-trace",
            "queue-depth",
            "reactive-utilisation",
            "sla-feedback",
            "static",
        )

    def test_unknown_scaler_names_every_policy(self):
        with pytest.raises(UnknownScalerError) as exc:
            get_scaler("teleporting")
        message = str(exc.value)
        for name in available_scalers():
            assert name in message

    def test_reregistration_requires_replace(self):
        scaler = StaticScaler()
        with pytest.raises(ValueError, match="replace=True"):
            register_scaler(scaler)
        assert register_scaler(scaler, replace=True) is scaler
        register_scaler(StaticScaler(), replace=True)  # restore a clean one

    def test_nameless_scaler_rejected(self):
        class Nameless:
            def desired_nodes(self, obs):
                return 1

        with pytest.raises(ValueError, match="name"):
            register_scaler(Nameless())


class TestPolicies:
    def test_static_never_changes(self):
        scaler = StaticScaler()
        assert scaler.desired_nodes(observation()) == 10
        assert scaler.desired_nodes(observation(pending_nodes=3)) == 13

    def test_reactive_holds_inside_the_band(self):
        scaler = ReactiveUtilisationScaler()
        assert scaler.desired_nodes(observation(utilisation=0.6)) == 10

    def test_reactive_scales_up_above_high(self):
        scaler = ReactiveUtilisationScaler()
        obs = observation(utilisation=0.9, offered_rate_per_s=900_000.0)
        # 900k at target 0.6 of 100k/node -> 15 nodes.
        assert scaler.desired_nodes(obs) == 15

    def test_reactive_scales_down_below_low(self):
        scaler = ReactiveUtilisationScaler()
        obs = observation(utilisation=0.2, offered_rate_per_s=200_000.0)
        # 200k at target 0.6 -> ceil(3.33) = 4 nodes.
        assert scaler.desired_nodes(obs) == 4

    def test_reactive_validates_band(self):
        with pytest.raises(ValueError, match="low < target < high"):
            ReactiveUtilisationScaler(high=0.5, low=0.6)

    def test_queue_depth_normalises_by_natural_depth(self):
        scaler = QueueDepthScaler()
        # natural depth = 100k/s * 20 ms = 2000 in flight per node.
        calm = observation(queue_depth=0.5 * 2000)
        assert scaler.desired_nodes(calm) == 10
        # Deep backlog: 1.0x natural on 10 nodes -> spread to 0.6x.
        deep = observation(queue_depth=2000.0)
        assert scaler.desired_nodes(deep) == pytest.approx(
            -(-2000 * 10 // (0.6 * 2000))
        )
        shallow = observation(queue_depth=0.1 * 2000)
        assert scaler.desired_nodes(shallow) == 9

    def test_predictive_sizes_for_the_coming_peak(self):
        scaler = PredictiveTraceScaler()
        ramp = RateTrace.constant(100_000.0, 0.5).then(
            RateTrace.constant(1_200_000.0, 0.5)
        )
        obs = observation(
            trace=ramp, t_s=0.35, offered_rate_per_s=100_000.0,
            utilisation=0.1, nodes=2,
        )
        # Lookahead covers the 1.2M step: 1.2M / (0.6 * 100k) = 20.
        assert scaler.desired_nodes(obs) == 20

    def test_sla_feedback_grows_on_miss_and_waits_on_pending(self):
        scaler = SlaFeedbackScaler()
        miss = observation(tail_ms=40.0)
        assert scaler.desired_nodes(miss) == 15  # +50%
        ordered = observation(tail_ms=40.0, pending_nodes=5)
        assert scaler.desired_nodes(ordered) == 15  # hold: already ordered

    def test_sla_feedback_creeps_down_when_comfortable(self):
        scaler = SlaFeedbackScaler()
        comfy = observation(tail_ms=20.0, sla_attainment=1.0)
        assert scaler.desired_nodes(comfy) == 9
        tight = observation(tail_ms=28.0, sla_attainment=1.0)
        assert scaler.desired_nodes(tight) == 10


class _AlwaysUp:
    name = "test-always-up"

    def desired_nodes(self, obs):
        return obs.committed_nodes + 1


class _AlwaysDown:
    name = "test-always-down"

    def desired_nodes(self, obs):
        return obs.committed_nodes - 1


class TestSimulator:
    @pytest.fixture(scope="class")
    def trace(self, gpu_session):
        per_node = gpu_session.perf().throughput_items_per_s
        return diurnal_trace(6.0 * per_node, 0.6, amplitude=0.6)

    def test_deterministic(self, gpu_session, trace):
        runs = [
            simulate_autoscale(
                gpu_session, trace, policy="reactive-utilisation",
                slo_ms=30.0, windows=6, seed=3,
            ).as_dict()
            for _ in range(2)
        ]
        assert json.dumps(runs[0]) == json.dumps(runs[1])

    def test_provisioning_delay_defers_scale_ups(self, gpu_session, trace):
        result = simulate_autoscale(
            gpu_session, trace, policy=_AlwaysUp(), slo_ms=30.0,
            windows=6, initial_nodes=4, compare_static=False,
        )
        nodes = [w.nodes for w in result.windows]
        # Decision after window 0 + one-interval delay -> online in w2.
        assert nodes[0] == 4 and nodes[1] == 4
        assert nodes[2] == 5
        assert result.windows[1].pending_nodes == 1

    def test_zero_delay_scales_up_next_window(self, gpu_session, trace):
        result = simulate_autoscale(
            gpu_session, trace, policy=_AlwaysUp(), slo_ms=30.0,
            windows=4, initial_nodes=4, provision_delay_s=0.0,
            compare_static=False,
        )
        assert [w.nodes for w in result.windows] == [4, 5, 6, 7]

    def test_scale_down_is_immediate(self, gpu_session, trace):
        result = simulate_autoscale(
            gpu_session, trace, policy=_AlwaysDown(), slo_ms=30.0,
            windows=5, initial_nodes=4, min_nodes=2, compare_static=False,
        )
        assert [w.nodes for w in result.windows] == [4, 3, 2, 2, 2]

    def test_max_nodes_clamps_the_policy(self, gpu_session, trace):
        result = simulate_autoscale(
            gpu_session, trace, policy=_AlwaysUp(), slo_ms=30.0,
            windows=6, initial_nodes=4, max_nodes=5,
            provision_delay_s=0.0, compare_static=False,
        )
        assert result.peak_nodes == 5

    def test_cooldown_rate_limits_actions(self, gpu_session, trace):
        result = simulate_autoscale(
            gpu_session, trace, policy=_AlwaysUp(), slo_ms=30.0,
            windows=6, initial_nodes=4, provision_delay_s=0.0,
            cooldown_s=trace.duration_s, compare_static=False,
        )
        # One action fits in the horizon-long cool-down.
        assert [w.nodes for w in result.windows] == [4, 5, 5, 5, 5, 5]

    def test_static_baseline_attached_and_peak_sized(
        self, gpu_session, trace
    ):
        result = simulate_autoscale(
            gpu_session, trace, policy="static", slo_ms=30.0,
            windows=6, seed=0,
        )
        static = result.static
        assert static is not None
        assert static.nodes >= static.throughput_only_nodes >= 1
        assert static.usd_total > 0
        assert 0.0 <= static.sla_attainment <= 1.0

    def test_static_baseline_ignores_the_elastic_bounds(
        self, gpu_session, trace
    ):
        # A tight max_nodes clamps the *elastic* fleet, never the fixed
        # baseline: the never-resizes null hypothesis must stay at its
        # peak-sized node count for the whole horizon, so its spend is
        # exactly nodes x horizon x rate.
        result = simulate_autoscale(
            gpu_session, trace, policy="reactive-utilisation",
            slo_ms=30.0, windows=6, max_nodes=2, seed=0,
        )
        assert result.peak_nodes <= 2
        static = result.static
        assert static is not None
        assert static.nodes > 2
        assert static.usd_total == pytest.approx(
            static.nodes
            * (trace.duration_s / 3600.0)
            * result.node_usd_per_hour
        )

    def test_precomputed_baseline_is_attached_not_recomputed(
        self, gpu_session, trace
    ):
        first = simulate_autoscale(
            gpu_session, trace, policy="static", slo_ms=30.0,
            windows=6, seed=0,
        )
        second = simulate_autoscale(
            gpu_session, trace, policy="reactive-utilisation",
            slo_ms=30.0, windows=6, seed=0,
            compare_static=False, static_baseline=first.static,
        )
        assert second.static is first.static
        assert second.usd_savings_vs_static is not None

    def test_compare_policies_shares_one_baseline(self, gpu_session, trace):
        from repro.autoscale import compare_policies

        results = compare_policies(
            gpu_session, trace,
            ["static", "reactive-utilisation", "predictive-trace"],
            slo_ms=30.0, windows=6, seed=0,
        )
        assert list(results) == [
            "static", "reactive-utilisation", "predictive-trace",
        ]
        baselines = {id(r.static) for r in results.values()}
        assert len(baselines) == 1  # computed once, attached to all
        assert results["static"].static is not None
        with pytest.raises(TypeError, match="compare_static"):
            compare_policies(
                gpu_session, trace, ["static"],
                slo_ms=30.0, compare_static=False,
            )

    def test_unattainable_slo_yields_no_baseline(self, gpu_session, trace):
        # Far below the batched engine's latency floor: plan_fleet_sla
        # raises, the elastic run still completes, the baseline is None.
        result = simulate_autoscale(
            gpu_session, trace, policy="static", slo_ms=0.001,
            windows=3, max_nodes=64,
        )
        assert result.static is None
        assert result.usd_savings_vs_static is None

    def test_cluster_surface_scales_whole_clusters(self, trace):
        cluster = repro.deploy_cluster(
            [
                repro.ReplicaSpec("small", "fpga"),
                repro.ReplicaSpec("small", "cpu"),
            ],
            router="sla-aware",
            max_rows=MAX_ROWS,
        )
        result = simulate_autoscale(
            cluster,
            diurnal_trace(
                3.0 * cluster.perf().throughput_items_per_s, 0.3
            ),
            policy="reactive-utilisation",
            slo_ms=30.0,
            windows=4,
            compare_static=False,
        )
        assert result.backend == cluster.backend
        assert result.mean_nodes >= 1

    def test_aggregates_are_consistent(self, gpu_session, trace):
        result = simulate_autoscale(
            gpu_session, trace, policy="reactive-utilisation",
            slo_ms=30.0, windows=6, compare_static=False,
        )
        assert result.min_observed_nodes <= result.mean_nodes
        assert result.mean_nodes <= result.peak_nodes
        assert result.usd_total == pytest.approx(
            result.node_hours * result.node_usd_per_hour
        )
        assert result.usd_per_hour == pytest.approx(
            result.usd_total / (result.duration_s / 3600.0)
        )
        assert 0.0 <= result.sla_attainment <= 1.0
        assert 0.0 <= result.overflow_share <= 1.0
        payload = result.as_dict()
        assert len(payload["timeline"]) == 6
        assert payload["aggregate"]["mean_nodes"] == result.mean_nodes

    def test_knob_validation(self, gpu_session, trace):
        bad = [
            {"slo_ms": 0.0},
            {"slo_ms": float("nan")},
            {"slo_ms": float("inf")},
            {"slo_ms": 30.0, "slo_percentile": 100.0},
            {"slo_ms": 30.0, "windows": 0},
            {"slo_ms": 30.0, "min_nodes": 0},
            {"slo_ms": 30.0, "min_nodes": 5, "max_nodes": 4},
            {"slo_ms": 30.0, "cooldown_s": -1.0},
            {"slo_ms": 30.0, "provision_delay_s": -0.1},
            {"slo_ms": 30.0, "headroom": 1.5},
            {"slo_ms": 30.0, "initial_nodes": 0},
        ]
        for knobs in bad:
            with pytest.raises(ValueError):
                simulate_autoscale(gpu_session, trace, **knobs)
        with pytest.raises(UnknownScalerError):
            simulate_autoscale(
                gpu_session, trace, policy="warp-drive", slo_ms=30.0
            )

    def test_pipelined_fleet_scales_too(self, fpga_session):
        per_node = fpga_session.perf().throughput_items_per_s
        result = simulate_autoscale(
            fpga_session,
            diurnal_trace(4.0 * per_node, 0.2, amplitude=0.6),
            policy="reactive-utilisation",
            slo_ms=30.0,
            windows=4,
            compare_static=False,
        )
        # The FPGA pipeline holds the SLO at every sane utilisation.
        assert result.sla_attainment == pytest.approx(1.0)


class TestElasticFleetExperiment:
    """The PR's acceptance criterion, asserted deterministically."""

    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import elastic_fleet

        return elastic_fleet.run()

    def test_covers_every_policy_plus_static_fleet(self, result):
        policies = [row["policy"] for row in result.rows]
        for name in available_scalers():
            assert name in policies
        assert policies[-1].startswith("static-peak")

    def test_static_peak_fleet_holds_the_slo(self, result):
        static_row = result.rows[-1]
        assert static_row["sla_attainment"] >= 0.99
        assert static_row["usd_vs_static"] == 1.0

    def test_some_elastic_policy_beats_static_on_cost_at_sla(self, result):
        # On the bundled diurnal trace with a 30 ms p99 SLO, at least
        # one non-static scaler achieves >= 99% SLA attainment at
        # strictly lower total $ than the peak-sized static fleet.
        winners = [
            row
            for row in result.rows[:-1]
            if row["policy"] != "static"
            and row["sla_attainment"] >= 0.99
            and row["usd_vs_static"] < 1.0
        ]
        assert winners, (
            "no elastic policy met >= 99% SLA below the static fleet's "
            f"cost: {result.rows}"
        )

    def test_predictive_trace_is_a_winner(self, result):
        # The look-ahead policy specifically should ride the sinusoid.
        row = next(
            r for r in result.rows if r["policy"] == "predictive-trace"
        )
        assert row["sla_attainment"] >= 0.99
        assert row["usd_vs_static"] < 1.0


class TestCliAutoscale:
    ARGS: ClassVar[list[str]] = [
        "autoscale", "small", "--max-rows", str(MAX_ROWS),
        "--windows", "4", "--interval-s", "0.05", "--seed", "7",
        "--policy", "reactive-utilisation", "--policy", "static",
    ]

    def test_json_stdout_is_pure_and_deterministic(self, capsys):
        assert main([*self.ARGS, "--json"]) == 0
        first = capsys.readouterr().out
        payload = json.loads(first)
        assert set(payload["policies"]) == {
            "reactive-utilisation", "static",
        }
        for record in payload["policies"].values():
            assert record["timeline"]
            assert record["static_baseline"] is not None
        assert main([*self.ARGS, "--json"]) == 0
        assert capsys.readouterr().out == first

    def test_human_output(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "nodes/window" in out
        assert "vs static" in out

    def test_unknown_policy_exits_2(self, capsys):
        assert main(
            ["autoscale", "small", "--policy", "warp-drive"]
        ) == 2
        assert "warp-drive" in capsys.readouterr().err

    def test_unknown_trace_exits_2(self, capsys):
        assert main(["autoscale", "small", "--trace", "sawtooth"]) == 2
        assert "sawtooth" in capsys.readouterr().err

    def test_unknown_model_exits_2(self):
        assert main(["autoscale", "medium"]) == 2

    def test_non_finite_slo_exits_2(self, capsys):
        # Before, both exited 0 and printed "slo_ms": NaN (not JSON).
        for value in ("nan", "inf"):
            assert main([*self.ARGS, "--slo-ms", value, "--json"]) == 2
            captured = capsys.readouterr()
            assert "slo_ms" in captured.err
            assert "Traceback" not in captured.err
            assert captured.out == ""

    def test_flash_trace_runs(self, capsys):
        assert main(
            ["autoscale", "small", "--max-rows", str(MAX_ROWS),
             "--trace", "flash", "--windows", "3", "--policy",
             "predictive-trace", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace"] == "flash"
