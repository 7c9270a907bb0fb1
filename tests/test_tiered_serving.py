"""Tiered storage threaded through the serving path.

Covers the serving-surface integration (``attach_tiers``, the
``tier_warmup`` serve knob, the ``memory`` perf block), the
byte-identity guarantee when tiering is disabled, the autoscaler's
cold-node accounting, and the acceptance claim: a scale-up puts
measurably-cold nodes on the floor for at least one window before the
fleet recovers to warm steady state.
"""

import json
from typing import ClassVar

import numpy as np
import pytest

import repro
from repro.autoscale import simulate_autoscale
from repro.cli import main
from repro.cluster import ReplicaSpec, deploy_cluster
from repro.core.tables import make_tables
from repro.distplan import NodeView, deploy_sharded, sharded_lookup_for
from repro.distplan.planner import plan_sharding
from repro.experiments import tiered_storage
from repro.memory.tiers import scaled_tier_hierarchy
from repro.serving.arrivals import flash_crowd_trace, poisson_arrivals
from repro.serving.lab import tiering_lab
from repro.serving.popularity import PopularityModel

MAX_ROWS = 128
SLO_MS = 30.0


def fresh_session(backend="fpga"):
    return repro.deploy_model("small", backend=backend, max_rows=MAX_ROWS)


def tiered_session(backend="fpga", **knobs):
    session = fresh_session(backend)
    rows = sum(t.rows for t in session.model.tables)
    hierarchy = scaled_tier_hierarchy(
        rows,
        hot_fraction=knobs.pop("hot_fraction", 0.125),
        warm_accesses=knobs.pop("warm_accesses", 2048),
        sim_queries=knobs.pop("sim_queries", 512),
        **knobs,
    )
    return session.attach_tiers(
        hierarchy, popularity=PopularityModel(rows=rows), seed=0
    )


def arrivals_for(surface, utilisation=0.5, duration_s=0.05, seed=0):
    rate = utilisation * surface.perf().throughput_items_per_s
    return poisson_arrivals(np.random.default_rng(seed), rate, duration_s)


class TestAttachTiers:
    def test_returns_self_for_chaining(self):
        session = fresh_session()
        rows = sum(t.rows for t in session.model.tables)
        assert session.attach_tiers(scaled_tier_hierarchy(rows)) is session

    def test_perf_gains_a_memory_block(self):
        memory = tiered_session().perf().memory
        assert memory is not None
        assert memory.policy == "lru"
        assert 0.0 < memory.hit_rate <= 1.0
        assert memory.effective_lookup_ns >= memory.hot_lookup_ns
        assert memory.lookups_per_query >= 1
        assert len(memory.tiers) == len(memory.tier_fractions) == 3
        assert sum(memory.tier_fractions) == pytest.approx(1.0)

    def test_flat_surface_perf_has_no_memory_key(self):
        # The disabled path must stay byte-identical to the pre-tiering
        # world: no memory attribute set, no "memory" key in the JSON.
        perf = fresh_session().perf()
        assert perf.memory is None
        assert "memory" not in perf.as_dict()

    def test_tiered_perf_as_dict_round_trips(self):
        payload = tiered_session().perf().as_dict()
        assert payload["memory"]["policy"] == "lru"
        assert list(payload["memory"]["tiers"]) == ["hbm", "ddr", "host"]
        json.dumps(payload)  # JSON-serialisable throughout

    def test_cluster_surface_carries_the_block(self):
        cluster = deploy_cluster(
            [ReplicaSpec(backend="fpga", count=2)],
            "round-robin",
            slo_ms=SLO_MS,
            max_rows=MAX_ROWS,
        )
        assert cluster.perf().memory is None
        rows = sum(t.rows for t in cluster.replicas[0].model.tables)
        cluster.attach_tiers(
            scaled_tier_hierarchy(rows),
            popularity=PopularityModel(rows=rows),
        )
        memory = cluster.perf().memory
        assert memory is not None and memory.hit_rate > 0.0

    def test_bad_lookups_per_query_rejected(self):
        session = fresh_session()
        rows = sum(t.rows for t in session.model.tables)
        with pytest.raises(ValueError, match="lookups_per_query"):
            session.attach_tiers(
                scaled_tier_hierarchy(rows), lookups_per_query=0
            )


class TestTieredServe:
    def test_repeated_serves_are_byte_identical(self):
        session = tiered_session()
        arrivals = arrivals_for(session)
        first = session.serve(arrivals)
        second = session.serve(arrivals)
        np.testing.assert_array_equal(
            first.completions_ns, second.completions_ns
        )

    def test_cold_start_pays_a_visible_tail(self):
        session = tiered_session()
        arrivals = arrivals_for(session)
        warm = session.serve(arrivals)
        cold = session.serve(arrivals, tier_warmup=0)
        assert cold.p99_ms > warm.p99_ms
        assert cold.mean_ms > warm.mean_ms

    def test_warmup_knob_requires_a_hierarchy(self):
        with pytest.raises(TypeError, match="attach_tiers"):
            fresh_session().serve(
                np.array([1e6, 2e6]), tier_warmup=0
            )

    def test_negative_warmup_rejected(self):
        session = tiered_session()
        with pytest.raises(ValueError, match="tier_warmup"):
            session.serve(arrivals_for(session), tier_warmup=-1)

    def test_tier_penalty_only_ever_delays(self):
        session = tiered_session()
        arrivals = arrivals_for(session)
        tiered = session.serve(arrivals)
        session.tier_hierarchy = None  # detach -> flat serving
        flat = session.serve(arrivals)
        assert np.all(tiered.completions_ns >= flat.completions_ns)
        assert tiered.completions_ns.max() > flat.completions_ns.max()

    def test_flat_serve_identical_across_fresh_deployments(self):
        # Tiering off is the default; two independent deployments must
        # agree byte-for-byte (no hidden tier state leaks in).
        a, b = fresh_session(), fresh_session()
        arrivals = arrivals_for(a)
        np.testing.assert_array_equal(
            a.serve(arrivals).completions_ns,
            b.serve(arrivals).completions_ns,
        )

    def test_penalty_is_content_addressed_across_instances(self):
        # Two independent deployments with the same hierarchy, seed and
        # arrivals must agree byte-for-byte — the penalty is a pure
        # function of (stream, warmup, seed), not of object identity.
        a, b = tiered_session(), tiered_session()
        arrivals = arrivals_for(a, seed=1)
        np.testing.assert_array_equal(
            a.serve(arrivals).completions_ns,
            b.serve(arrivals).completions_ns,
        )

    def test_different_streams_hash_to_different_penalties(self):
        # The memoisation key is content-addressed: shifting the stream
        # changes the digest, so the sampled keys (and penalties) move.
        session = tiered_session()
        early = arrivals_for(session, seed=1)
        late = early + 5e9
        p_early = session.serve(early).completions_ns - early
        p_late = session.serve(late).completions_ns - late
        assert p_early.shape == p_late.shape
        assert not np.array_equal(p_early, p_late)


class TestTieringLab:
    def test_lab_requires_attached_tiers(self):
        with pytest.raises(ValueError, match="attach_tiers"):
            tiering_lab(fresh_session())

    def test_lab_contrasts_warm_and_cold(self):
        block = tiering_lab(
            tiered_session(), utilisations=(0.5,), duration_s=0.05
        )
        assert block["policy"] == "lru"
        assert 0.0 < block["steady_state"]["hit_rate"] <= 1.0
        warm = block["warm"]["points"][0]
        cold = block["cold"]["points"][0]
        assert cold["p99_ms"] > warm["p99_ms"]

    def test_lab_is_deterministic(self):
        dumps = [
            json.dumps(
                tiering_lab(
                    tiered_session(), utilisations=(0.4,), duration_s=0.05
                ),
                sort_keys=True,
            )
            for _ in range(2)
        ]
        assert dumps[0] == dumps[1]


class TestShardingUnaffected:
    def test_sharded_lookup_identity_survives_tiering(self):
        # Tiering changes latency accounting, never embedding values:
        # the sharded executor stays byte-identical to the unsharded
        # oracle whether or not the serving surface carries tiers.
        cluster = deploy_sharded(
            "small",
            [ReplicaSpec(backend="fpga", count=4)],
            slo_ms=SLO_MS,
            max_rows=256,
            node_capacity_bytes=512 * 1024 * 1024,
        )
        rows = sum(t.rows for t in cluster.replicas[0].model.tables)
        cluster.attach_tiers(
            scaled_tier_hierarchy(rows),
            popularity=PopularityModel(rows=rows),
        )
        model = cluster.replicas[0].model
        nodes = tuple(
            NodeView(
                index=i,
                backend="fpga",
                capacity_bytes=1 << 20,
                serving_latency_ms=1.0 + 0.1 * i,
                ii_ns=100.0,
                usd_per_hour=1.0,
            )
            for i in range(4)
        )
        plan = plan_sharding(model, nodes)
        executor = sharded_lookup_for(model, plan, seed=0)
        oracle = make_tables(model.tables, seed=0)
        for table in model.tables:
            idx = np.arange(table.rows)
            np.testing.assert_array_equal(
                executor.lookup(table.table_id, idx),
                oracle[table.table_id].lookup(idx),
            )

    def test_sharded_cluster_serves_with_tier_penalty(self):
        cluster = deploy_sharded(
            "small",
            [ReplicaSpec(backend="fpga", count=4)],
            slo_ms=SLO_MS,
            max_rows=256,
            node_capacity_bytes=512 * 1024 * 1024,
        )
        arrivals = arrivals_for(cluster, utilisation=0.4)
        flat = cluster.serve(arrivals)
        rows = sum(t.rows for t in cluster.replicas[0].model.tables)
        cluster.attach_tiers(
            scaled_tier_hierarchy(rows),
            popularity=PopularityModel(rows=rows),
        )
        tiered = cluster.serve(arrivals)
        assert tiered.router == flat.router == "fanout"
        assert np.all(tiered.completions_ns >= flat.completions_ns)


class TestAutoscaleColdStarts:
    def surface_and_trace(self):
        surface = tiered_session(hot_fraction=0.05)
        per_node = surface.perf().throughput_items_per_s
        trace = flash_crowd_trace(
            2.0 * per_node, 0.8, spike_rate_per_s=6.0 * per_node
        )
        return surface, trace

    def test_flat_surface_reports_no_cold_nodes(self):
        session = fresh_session()
        per_node = session.perf().throughput_items_per_s
        trace = flash_crowd_trace(
            2.0 * per_node, 0.6, spike_rate_per_s=6.0 * per_node
        )
        result = simulate_autoscale(
            session, trace, slo_ms=SLO_MS, windows=12, compare_static=False
        )
        assert all(w.cold_nodes == 0 for w in result.windows)

    def test_scale_up_serves_cold_then_recovers(self):
        surface, trace = self.surface_and_trace()
        result = simulate_autoscale(
            surface, trace, slo_ms=SLO_MS, windows=16, compare_static=False
        )
        windows = result.windows
        cold = [w for w in windows if w.cold_nodes > 0]
        assert cold, "the spike must create at least one cold window"
        # Cold windows follow a scale-up: more nodes than the start.
        assert all(w.nodes > windows[0].nodes for w in cold)
        last_cold = max(w.index for w in cold)
        recovered = [w for w in windows if w.index > last_cold]
        assert recovered, "the fleet must return to warm steady state"
        assert all(w.cold_nodes == 0 for w in recovered)
        # The acceptance claim: cold caches are measurably worse.
        worst_cold = max(w.p99_ms for w in cold)
        worst_recovered = max(w.p99_ms for w in recovered)
        assert worst_cold > worst_recovered

    def test_cold_nodes_in_window_payload(self):
        surface, trace = self.surface_and_trace()
        result = simulate_autoscale(
            surface, trace, slo_ms=SLO_MS, windows=8, compare_static=False
        )
        payload = result.windows[0].as_dict()
        assert "cold_nodes" in payload
        json.dumps(result.as_dict())

    def test_tiered_autoscale_is_deterministic(self):
        surface, trace = self.surface_and_trace()
        dumps = [
            json.dumps(
                simulate_autoscale(
                    surface,
                    trace,
                    slo_ms=SLO_MS,
                    windows=10,
                    compare_static=False,
                ).as_dict()
            )
            for _ in range(2)
        ]
        assert dumps[0] == dumps[1]


class TestTieredStorageExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return tiered_storage.run()

    def test_registered_in_the_harness(self):
        from repro.experiments.harness import CHARTS, EXPERIMENTS

        assert EXPERIMENTS["tiered_storage"] is tiered_storage.run
        assert "tiered_storage" in CHARTS

    def test_cold_transient_and_recovery(self, result):
        # Acceptance: the experiment shows a scale-up whose fresh nodes
        # serve cold (worse p99 for >= 1 window) and recover to warm.
        rows = result.rows
        cold = [r for r in rows if r["cold_nodes"] > 0]
        assert cold
        last_cold = max(r["window"] for r in cold)
        recovered = [r for r in rows if r["window"] > last_cold]
        assert recovered and all(r["cold_nodes"] == 0 for r in recovered)
        assert max(r["p99_ms"] for r in cold) > max(
            r["p99_ms"] for r in recovered
        )
        # The transient rides a scale-up, not the initial fleet.
        assert all(r["nodes"] > rows[0]["nodes"] for r in cold)

    def test_columns_and_title_tell_the_story(self, result):
        assert result.columns == [
            "window",
            "rate_per_s",
            "nodes",
            "cold_nodes",
            "p99_ms",
            "sla_attainment",
        ]
        assert "hit rate" in result.title
        assert len(result.rows) == tiered_storage.WINDOWS

    def test_deterministic(self, result):
        again = tiered_storage.run()
        assert json.dumps(again.rows) == json.dumps(result.rows)


class TestCliTiers:
    ARGS: ClassVar[list[str]] = [
        "tiers", "small", "--max-rows", "128", "--utilisation", "0.5",
        "--duration-s", "0.05", "--warm-accesses", "1024",
        "--sim-queries", "256",
    ]

    def test_json_stdout_is_pure_and_deterministic(self, capsys):
        outputs = []
        for _ in range(2):
            assert main([*self.ARGS, "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0])
        assert payload["model"] == "small"
        assert payload["policy"] == "lru"
        assert 0.0 < payload["steady_state"]["hit_rate"] <= 1.0

    def test_human_output_tells_the_story(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "hbm" in out and "ddr" in out and "host" in out
        assert "hit rate" in out
        assert "cold" in out

    def test_policy_flag_selects_the_policy(self, capsys):
        assert main([*self.ARGS, "--policy", "lfu", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["policy"] == "lfu"

    def test_unknown_policy_exits_2(self, capsys):
        assert main([*self.ARGS, "--policy", "belady"]) == 2
        assert "belady" in capsys.readouterr().err

    def test_unknown_model_exits_2(self):
        assert main(["tiers", "galactic"]) == 2

    @pytest.mark.parametrize(
        ("flag", "field"),
        [
            ("--alpha", "alpha"),
            ("--drift", "drift_rows_per_s"),
            ("--duration-s", "duration_s"),
        ],
    )
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_input_exits_2_naming_the_field(
        self, capsys, flag, field, value
    ):
        assert main([*self.ARGS, flag, value, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{field} must be" in captured.err
