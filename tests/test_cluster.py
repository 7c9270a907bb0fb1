"""Tests for the heterogeneous cluster API: routing, Cluster, CLI.

Covers the routing-policy registry (mirroring the backend registry's
contract), the built-in policies' semantics (determinism, least-loaded
balancing, SLA-aware spillover), the blended/per-tier result algebra,
the shared ServingSurface on clusters, the ``repro cluster`` CLI verb's
byte-identical ``--json`` determinism, and the acceptance claim: a
routed fpga+gpu+cpu cluster beats the cheapest commodity tier at the
same node count.
"""

import dataclasses
import json
from typing import ClassVar

import numpy as np
import pytest

import repro
from repro.cluster import (
    Cluster,
    ClusterServingResult,
    ReplicaSpec,
    UnknownRoutingPolicyError,
    available_policies,
    deploy_cluster,
    get_policy,
    register_policy,
)
from repro.cluster.routing import ReplicaView
from repro.cli import main
from repro.runtime import deploy_model
from repro.serving.arrivals import bursty_trace, poisson_arrivals, trace_arrivals
from repro.serving.lab import LoadCurve
from repro.serving.queueing import ServingResult

MAX_ROWS = 256
SLO_MS = 30.0
TIERS = ("fpga", "gpu", "cpu")


@pytest.fixture(scope="module")
def sessions():
    """One deployed session per tier, shared across the module."""
    return {
        name: deploy_model("small", backend=name, max_rows=MAX_ROWS, seed=0)
        for name in TIERS
    }


@pytest.fixture(scope="module")
def cluster3(sessions):
    """The acceptance cluster: fpga primary + gpu/cpu overflow tiers."""
    return Cluster(
        [sessions[name] for name in TIERS], "sla-aware", slo_ms=SLO_MS
    )


def arrivals_at(rate_per_s: float, duration_s: float = 0.2, seed: int = 7):
    return poisson_arrivals(
        np.random.default_rng(seed), rate_per_s, duration_s
    )


class TestRoutingRegistry:
    def test_builtin_policies_registered(self):
        names = available_policies()
        assert {
            "round-robin",
            "least-loaded",
            "cheapest-first",
            "sla-aware",
        } <= set(names)
        assert names == tuple(sorted(names))

    def test_get_policy_returns_named_policy(self):
        for name in available_policies():
            assert get_policy(name).name == name

    def test_unknown_policy_error_lists_names(self):
        with pytest.raises(UnknownRoutingPolicyError) as err:
            get_policy("quantum-annealing")
        message = str(err.value)
        assert "quantum-annealing" in message
        for name in available_policies():
            assert name in message
        assert isinstance(err.value, LookupError)

    def test_register_rejects_duplicates_and_anonymous(self):
        rr = get_policy("round-robin")
        with pytest.raises(ValueError, match="replace=True"):
            register_policy(rr)
        with pytest.raises(ValueError, match="str .name"):
            register_policy(object())
        assert register_policy(rr, replace=True) is rr

    def test_custom_policy_plugs_in(self, sessions):
        from repro.cluster.routing import _REGISTRY

        class AlwaysFirst:
            name = "always-first-test"

            def route(self, arrivals_ns, replicas, *, slo_ms):
                return np.zeros(arrivals_ns.size, dtype=np.int64)

        register_policy(AlwaysFirst())
        try:
            cluster = Cluster(
                [sessions["fpga"], sessions["cpu"]], "always-first-test"
            )
            result = cluster.serve(arrivals_at(50_000, 0.05))
            assert result.tier_counts()["cpu"] == 0
            assert result.tier_counts()["fpga"] == result.count
        finally:
            del _REGISTRY["always-first-test"]


def _views(sessions, names):
    views = []
    for i, name in enumerate(names):
        perf = sessions[name].perf()
        views.append(
            ReplicaView(
                index=i,
                backend=name,
                model="small",
                latency_ms=perf.latency_us / 1e3,
                serving_latency_ms=perf.serving_latency_ms,
                ii_ns=perf.ii_ns,
                usd_per_hour=perf.usd_per_hour,
                usd_per_million_queries=perf.usd_per_million_queries,
            )
        )
    return views


class TestRoutingPolicies:
    def test_round_robin_splits_evenly(self, sessions):
        cluster = Cluster([sessions["fpga"], sessions["cpu"]], "round-robin")
        result = cluster.serve(arrivals_at(40_000, 0.1))
        counts = result.replica_counts()
        assert abs(counts[0] - counts[1]) <= 1

    def test_policies_are_deterministic(self, sessions):
        arrivals = arrivals_at(200_000, 0.1)
        views = _views(sessions, TIERS)
        for name in available_policies():
            policy = get_policy(name)
            first = policy.route(arrivals, views, slo_ms=SLO_MS)
            second = policy.route(arrivals, views, slo_ms=SLO_MS)
            np.testing.assert_array_equal(first, second, err_msg=name)

    def test_cluster_serve_is_deterministic(self, cluster3):
        arrivals = arrivals_at(300_000, 0.1)
        first = cluster3.serve(arrivals)
        second = cluster3.serve(arrivals)
        np.testing.assert_array_equal(
            first.completions_ns, second.completions_ns
        )
        np.testing.assert_array_equal(first.assignments, second.assignments)

    def test_least_loaded_balances_a_skewed_trace(self, sessions):
        # A bursty (MMPP-style) trace over a skewed fleet: one fast fpga
        # replica and one slow cpu replica.  Blind rotation overloads
        # the cpu half; least-loaded shifts work towards the fpga's
        # spare capacity and holds a far better tail.
        trace = bursty_trace(
            np.random.default_rng(3), 120_000, 0.2, burst_rate_per_s=360_000
        )
        arrivals = trace_arrivals(np.random.default_rng(4), trace)
        replicas = [sessions["fpga"], sessions["cpu"]]
        balanced = Cluster(replicas, "least-loaded").serve(arrivals)
        rotated = Cluster(replicas, "round-robin").serve(arrivals)
        assert balanced.p99_ms < rotated.p99_ms
        # The fpga replica carries most of the load (it has ~4x the
        # capacity), instead of the rotation's fixed 50%.
        assert balanced.tier_share("fpga") > 0.6
        assert rotated.tier_share("fpga") == pytest.approx(0.5, abs=0.01)

    def test_cheapest_first_fills_cheapest_then_spills(self, sessions):
        # fpga is the cheapest tier per query in this model; under light
        # load everything lands there, and only backlog forces overflow.
        replicas = [sessions["fpga"], sessions["gpu"]]
        light = Cluster(replicas, "cheapest-first").serve(
            arrivals_at(100_000, 0.1)
        )
        assert light.tier_share("fpga") == 1.0
        heavy = Cluster(replicas, "cheapest-first").serve(
            arrivals_at(400_000, 0.1)
        )
        assert heavy.tier_counts()["gpu"] > 0

    def test_sla_aware_spills_only_past_the_slo(self, sessions):
        cluster = Cluster(
            [sessions[name] for name in TIERS], "sla-aware", slo_ms=SLO_MS
        )
        fpga_capacity = sessions["fpga"].perf().throughput_items_per_s

        # Below the primary tier's capacity the predicted tail never
        # crosses the SLO: zero spill, everything on the fpga.
        calm = cluster.serve(arrivals_at(0.8 * fpga_capacity, 0.2))
        assert calm.spill_fraction("fpga") == 0.0
        assert calm.p99_ms < SLO_MS

        # Past the primary's capacity its simulated backlog pushes the
        # predicted tail over the SLO and the overflow starts — to the
        # gpu (the next-fastest tier), not the cpu.
        stormy = cluster.serve(arrivals_at(1.5 * fpga_capacity, 0.2))
        assert stormy.spill_fraction("fpga") > 0.0
        assert stormy.tier_counts()["gpu"] > 0
        assert stormy.tier_counts()["cpu"] == 0
        # The primary tier itself is held at (about) the SLO.
        assert stormy.tier_result("fpga").p99_ms <= SLO_MS * 1.05

    def test_sla_aware_rejects_bad_slo(self, sessions):
        views = _views(sessions, TIERS)
        for slo_ms in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="slo_ms"):
                get_policy("sla-aware").route(
                    arrivals_at(1000, 0.01), views, slo_ms=slo_ms
                )

    def test_sla_aware_rejects_non_finite_arrivals(self, sessions):
        views = _views(sessions, TIERS)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="arrivals_ns"):
                get_policy("sla-aware").route(
                    np.array([0.0, bad, 5.0]), views, slo_ms=SLO_MS
                )

    def test_replica_view_rejects_bad_figures(self, sessions):
        view = _views(sessions, ["fpga"])[0]
        bad_values = {
            "ii_ns": (0.0, -1.0, float("nan"), float("inf")),
            "latency_ms": (-1.0, float("nan"), float("inf")),
            "serving_latency_ms": (-1.0, float("nan"), float("inf")),
        }
        for field, values in bad_values.items():
            for value in values:
                with pytest.raises(ValueError, match=field):
                    dataclasses.replace(view, **{field: value})


class TestClusterServingResult:
    @pytest.fixture(scope="class")
    def result(self, cluster3) -> ClusterServingResult:
        return cluster3.serve(arrivals_at(450_000, 0.2))

    def test_is_a_serving_result(self, result):
        assert isinstance(result, ServingResult)
        assert result.count == result.arrivals_ns.size
        assert np.all(np.diff(result.arrivals_ns) >= 0)

    def test_tier_counts_partition_the_stream(self, result):
        assert sum(result.tier_counts().values()) == result.count
        assert sum(result.replica_counts()) == result.count
        shares = [result.tier_share(name) for name in TIERS]
        assert sum(shares) == pytest.approx(1.0)

    def test_tier_result_matches_assignment(self, result):
        fpga = result.tier_result("fpga")
        assert fpga.count == result.tier_counts()["fpga"]

    def test_unknown_tier_rejected_consistently(self, result):
        # All three accessors must refuse a tier the cluster does not
        # have, rather than reporting a plausible 0%/100% for a typo.
        for accessor in (
            result.tier_result,
            result.tier_share,
            result.spill_fraction,
        ):
            with pytest.raises(ValueError, match="no tier 'tpu'"):
                accessor("tpu")
        # An existing-but-idle tier is a 0.0 share, not an error.
        if result.tier_counts().get("cpu") == 0:
            assert result.tier_share("cpu") == 0.0

    def test_blended_percentiles_bracket_tiers(self, result):
        served = [
            result.tier_result(name)
            for name, count in result.tier_counts().items()
            if count
        ]
        assert len(served) >= 2  # the storm actually spilled
        assert (
            min(r.p50_ms for r in served)
            <= result.p50_ms
            <= max(r.p50_ms for r in served)
        )

    def test_as_dict_shape(self, result):
        payload = result.as_dict(SLO_MS)
        assert payload["router"] == "sla-aware"
        assert payload["queries"] == result.count
        assert set(payload["blended"]) == {
            "mean_ms", "p50_ms", "p95_ms", "p99_ms", "p999_ms",
            "sla_attainment", "achieved_qps",
        }
        assert set(payload["tiers"]) == set(TIERS)
        idle = [t for t in payload["tiers"].values() if not t["queries"]]
        for tier in idle:
            assert "p99_ms" not in tier  # idle tiers carry counts only
        assert payload["usd_per_hour"] == pytest.approx(
            sum(s.usd_per_hour for s in cluster_sessions(result))
        )

    def test_cost_amortises_over_achieved_throughput(self, result):
        expected = (
            result.usd_per_hour
            / 3600.0
            / result.achieved_throughput_per_s
            * 1e6
        )
        assert result.usd_per_million_queries == pytest.approx(expected)


def cluster_sessions(result: ClusterServingResult):
    """Hourly-rate stand-ins matching the result's replica set."""
    from repro.deploy.capacity import (
        CPU_USD_PER_HOUR,
        FPGA_USD_PER_HOUR,
        GPU_USD_PER_HOUR,
    )

    class _Node:
        def __init__(self, usd):
            self.usd_per_hour = usd

    rates = {
        "fpga": FPGA_USD_PER_HOUR,
        "gpu": GPU_USD_PER_HOUR,
        "cpu": CPU_USD_PER_HOUR,
    }
    return [_Node(rates[name]) for name in result.replica_backends]


class TestClusterSurface:
    def test_serve_rejects_non_finite_arrivals(self, cluster3, sessions):
        # Before, a NaN arrival came back from the router as index -1.
        for surface in (cluster3, sessions["fpga"], sessions["cpu"]):
            for bad in (np.nan, np.inf):
                with pytest.raises(ValueError, match="arrivals_ns"):
                    surface.serve(np.array([0.0, bad, 5.0]))

    def test_serve_rejects_empty_stream(self, cluster3):
        with pytest.raises(ValueError, match="empty arrival stream"):
            cluster3.serve(np.array([]))

    def test_serve_rejects_per_server_knobs_clearly(self, cluster3):
        # Clusters mirror the pipelined sessions' contract: per-server
        # knobs fail loudly with a message, never a raw signature error.
        with pytest.raises(TypeError, match="no per-server knobs"):
            cluster3.serve(arrivals_at(10_000, 0.05), batch_timeout_ms=5.0)
        with pytest.raises(TypeError, match="batch_size"):
            cluster3.sweep(
                process="poisson", utilisations=(0.3,), duration_s=0.05,
                batch_size=64,
            )

    def test_perf_aggregates_capacity_and_cost(self, cluster3, sessions):
        perf = cluster3.perf()
        assert perf.backend == cluster3.backend == "cluster(fpga+gpu+cpu)"
        assert perf.throughput_items_per_s == pytest.approx(
            sum(s.perf().throughput_items_per_s for s in sessions.values())
        )
        assert perf.usd_per_hour == pytest.approx(
            sum(s.perf().usd_per_hour for s in sessions.values())
        )
        assert perf.bottleneck == "fpga tier"  # largest capacity share
        assert perf.precision == "mixed"  # fixed16 fpga + fp32 gpu/cpu

    def test_sweep_returns_a_load_curve(self, cluster3):
        curve = cluster3.sweep(
            process="poisson",
            utilisations=(0.3, 0.7),
            duration_s=0.05,
            slo_ms=SLO_MS,
        )
        assert isinstance(curve, LoadCurve)
        assert curve.backend == cluster3.backend
        assert len(curve.points) == 2

    def test_fleet_and_fleet_sla(self, cluster3):
        fleet = cluster3.fleet(2_000_000)
        assert fleet.engine == cluster3.backend
        assert fleet.nodes >= 1
        plan = cluster3.fleet_sla(2_000_000, slo_ms=SLO_MS, duration_s=0.05)
        assert plan.nodes >= fleet.nodes

    def test_serve_trace(self, cluster3):
        from repro.serving.arrivals import diurnal_trace

        result = cluster3.serve_trace(diurnal_trace(200_000, 0.1), seed=5)
        assert isinstance(result, ClusterServingResult)
        assert result.count > 0

    def test_infer_dispatches_to_a_replica(self, sessions):
        cluster = Cluster([sessions["fpga"], sessions["fpga"]], "round-robin")
        queries = repro.QueryGenerator(
            sessions["fpga"].model, seed=0
        ).batch(16)
        np.testing.assert_array_equal(
            cluster.infer(queries), sessions["fpga"].infer(queries)
        )

    def test_summary_keys(self, cluster3):
        summary = cluster3.summary()
        assert summary["router"] == "sla-aware"
        assert summary["replicas"] == 3
        assert summary["tiers"] == {"fpga": 1, "gpu": 1, "cpu": 1}


class TestDeployCluster:
    def test_replica_slots_share_one_build(self):
        cluster = deploy_cluster(
            [ReplicaSpec("small", "cpu", count=3)],
            max_rows=MAX_ROWS,
        )
        assert len(cluster) == 3
        assert cluster.replicas[0] is cluster.replicas[1] is cluster.replicas[2]
        assert cluster.backend == "cluster(cpux3)"

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            deploy_cluster([])
        with pytest.raises(ValueError, match="count"):
            ReplicaSpec("small", "cpu", count=0)
        with pytest.raises(UnknownRoutingPolicyError):
            deploy_cluster(
                [ReplicaSpec("small", "cpu")], router="teleporting"
            )
        with pytest.raises(repro.UnknownBackendError):
            deploy_cluster([ReplicaSpec("small", "tpu")], max_rows=MAX_ROWS)

    def test_non_finite_slo_rejected_before_any_build(
        self, sessions, monkeypatch
    ):
        def no_build(*args, **kwargs):
            raise AssertionError("a session was built")

        monkeypatch.setattr(repro.cluster.api, "deploy_model", no_build)
        for slo_ms in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="slo_ms"):
                deploy_cluster(
                    [ReplicaSpec("small", "cpu")],
                    router="sla-aware",
                    slo_ms=slo_ms,
                )
            with pytest.raises(ValueError, match="slo_ms"):
                Cluster([sessions["cpu"]], "sla-aware", slo_ms=slo_ms)

    def test_multi_model_routing(self):
        cluster = deploy_cluster(
            [
                ReplicaSpec("small", "cpu"),
                ReplicaSpec("large", "cpu"),
            ],
            router="least-loaded",
            max_rows=MAX_ROWS,
        )
        assert cluster.models() == ("small", "large")
        result = cluster.serve(arrivals_at(20_000, 0.05), model="small")
        assert result.replica_counts()[1] == 0  # the 'large' replica idles
        with pytest.raises(ValueError, match="hosted models"):
            cluster.serve(arrivals_at(20_000, 0.05), model="dlrm-rmc2")
        with pytest.raises(ValueError, match="pass model="):
            cluster.infer(
                repro.QueryGenerator(cluster.replicas[0].model).batch(4)
            )


class TestAcceptance:
    """The PR's headline claim, asserted end to end.

    A 3-tier fpga+gpu+cpu cluster under ``sla-aware`` routing reports
    strictly better blended p99 than the same traffic on the cheapest
    single tier at the same node count.  The fpga primary is excluded
    from "cheapest" — in this cost model the accelerator is both the
    fastest and the cheapest node, so the operator's real alternative
    is buying more of a commodity overflow tier: the cpu ($1.82/h/node,
    the cheapest commodity rate) or the gpu ($3.06/h/node).
    """

    def test_beats_cheapest_single_tier_at_same_node_count(
        self, cluster3, sessions
    ):
        nodes = len(cluster3)
        commodity = {
            name: sessions[name].usd_per_hour for name in ("gpu", "cpu")
        }
        cheapest = min(commodity, key=lambda name: commodity[name])
        assert cheapest == "cpu"
        for rate in (250_000.0, 450_000.0):
            arrivals = arrivals_at(rate)
            routed = cluster3.serve(arrivals)
            single = Cluster(
                [sessions[cheapest]] * nodes, "round-robin", slo_ms=SLO_MS
            ).serve(arrivals)
            assert routed.p99_ms < single.p99_ms, rate
            assert routed.sla_attainment(SLO_MS) > single.sla_attainment(
                SLO_MS
            )

    def test_beats_every_commodity_tier_below_primary_capacity(
        self, cluster3, sessions
    ):
        # With the traffic inside the fpga tier's capacity the routed
        # cluster stays microseconds-fast and beats *both* commodity
        # tiers at the same node count, not just the cheapest.
        arrivals = arrivals_at(250_000.0)
        routed = cluster3.serve(arrivals)
        for name in ("gpu", "cpu"):
            single = Cluster(
                [sessions[name]] * len(cluster3), "round-robin"
            ).serve(arrivals)
            assert routed.p99_ms < single.p99_ms, name


class TestClusterCli:
    ARGS: ClassVar[list[str]] = [
        "cluster", "small", "--max-rows", str(MAX_ROWS),
        "--duration-s", "0.05", "--seed", "11",
    ]

    def test_json_is_byte_identical_across_runs(self, capsys):
        assert main([*self.ARGS, "--json"]) == 0
        first = capsys.readouterr().out
        assert main([*self.ARGS, "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["router"] == "sla-aware"
        assert set(payload["singles"]) == set(TIERS)

    def test_human_output(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "blended" in out
        assert "homogeneous" in out

    def test_tier_counts_and_router_flag(self, capsys):
        assert main(
            [*self.ARGS,
             "--tier", "fpga:2", "--tier", "cpu", "--router",
             "least-loaded", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cluster"]["tiers"] == {"fpga": 2, "cpu": 1}
        assert payload["result"]["router"] == "least-loaded"

    def test_same_backend_tiers_get_distinct_single_rows(self, capsys):
        # Two cpu tiers hosting different models must not collapse into
        # one mislabeled homogeneous-comparison row.
        assert main(
            [*self.ARGS,
             "--tier", "cpu:1:small", "--tier", "cpu:1:large", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["singles"]) == {"cpu:small", "cpu:large"}

    def test_bad_inputs_exit_2(self, capsys):
        assert main([*self.ARGS, "--router", "warp"]) == 2
        assert main([*self.ARGS, "--tier", "fpga:none"]) == 2
        assert main([*self.ARGS, "--tier", "a:1:b:c"]) == 2
        assert main([*self.ARGS, "--process", "sawtooth"]) == 2
        assert main(["cluster", "medium"]) == 2
        capsys.readouterr()

    def test_bad_knobs_exit_2_not_traceback(self, capsys):
        # The CLI error contract: bad values exit 2 with the library's
        # one-line message, never an uncaught traceback.
        assert main([*self.ARGS, "--duration-s", "-1"]) == 2
        assert main([*self.ARGS, "--headroom", "1.5"]) == 2
        assert main([*self.ARGS, "--qps", "-5"]) == 2
        assert main([*self.ARGS, "--utilisation", "-0.5"]) == 2
        capsys.readouterr()

    def test_non_finite_slo_and_qps_exit_2(self, capsys):
        # Before, --slo-ms nan/inf exited 0 with SLA attainment 0.0/1.0
        # and --qps inf exited 1 with an OverflowError traceback.
        for flag, name in (("--slo-ms", "slo_ms"), ("--qps", "target_qps")):
            for value in ("nan", "inf"):
                assert main([*self.ARGS, flag, value]) == 2
                err = capsys.readouterr().err
                assert name in err
                assert "Traceback" not in err

    def test_info_lists_routing_policies(self, capsys):
        assert main(["info", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["routing_policies"]) == set(available_policies())
