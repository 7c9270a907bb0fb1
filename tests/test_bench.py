"""Tests for the ``repro.bench`` subsystem and the ``repro bench`` CLI."""

import copy
import json
import pathlib
import re
from typing import ClassVar

import pytest

from repro.bench import (
    METRICS,
    SCHEMA_VERSION,
    BenchConfig,
    BenchSchemaError,
    compare_payloads,
    default_output_path,
    regressions,
    run_bench,
    validate_file,
    validate_payload,
    write_payload,
)
from repro.bench.compare import BLOCK_METRICS, _read
from repro.cli import main

BACKENDS = ("fpga", "cpu", "gpu", "nmp")

#: The committed perf-gate baseline: a full v8 artifact with every block.
BASELINE = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_ci_baseline.json"
)

#: Leaf patterns (list indices as ``[*]``) the v8 schema leaves free.
UNPINNED_LEAVES = {
    # Planner statistics exist only on planning backends and no consumer
    # reads them; the schema pins the block as null or an object.
    "$.results[*].planner.candidate_count",
    "$.results[*].planner.dram_rounds",
    "$.results[*].planner.evaluated",
    "$.results[*].planner.lookup_latency_ns",
    "$.results[*].planner.merged_groups",
    "$.results[*].planner.storage_bytes",
    "$.results[*].planner.storage_overhead",
    "$.results[*].planner.tables",
    "$.results[*].planner.tables_in_dram",
    # The plan's score breakdown is diagnostic; --compare reads the
    # pinned headline fields (fanout, max_node_utilisation) instead.
    "$.sharding.plan.score.imbalance",
    "$.sharding.plan.score.max_utilisation",
    "$.sharding.plan.score.predicted_latency_ms",
    "$.sharding.plan.score.shards",
    "$.sharding.plan.score.usd_per_hour",
    # Provenance echoes: config.seed and each result's budget are pinned.
    "$.autoscale.result.seed",
    "$.config.wall_clock_budget_multiplier",
    # Duplicates of pinned fields: the result's own backend, and the
    # warm/cold curves' duration_s and slo_percentile.
    "$.results[*].serving.backend",
    "$.tiering.duration_s",
    "$.tiering.slo_percentile",
}


@pytest.fixture(scope="module")
def config():
    return BenchConfig.quick_config(
        backends=BACKENDS, batches=(1, 64), max_rows=128, name="testquick"
    )


@pytest.fixture(scope="module")
def payload(config):
    return run_bench(config)


class TestConfig:
    def test_quick_defaults(self):
        config = BenchConfig.quick_config()
        assert config.quick
        assert config.name == "quick"
        assert config.max_rows == 256

    def test_validation(self):
        with pytest.raises(ValueError):
            BenchConfig(models=())
        with pytest.raises(ValueError):
            BenchConfig(batches=(0,))
        with pytest.raises(ValueError):
            BenchConfig(batches=(8, 8))
        with pytest.raises(ValueError):
            BenchConfig(max_rows=-1)
        with pytest.raises(ValueError):
            BenchConfig(target_qps=0.0)
        with pytest.raises(ValueError):
            BenchConfig(name="../escape")

    def test_cluster_knob_validation(self):
        with pytest.raises(ValueError, match="duplicate cluster_backends"):
            BenchConfig(cluster_backends=("fpga", "fpga"))
        with pytest.raises(ValueError, match="cluster_utilisation"):
            BenchConfig(cluster_utilisation=0.0)
        with pytest.raises(ValueError, match="unknown cluster_router"):
            run_bench(
                BenchConfig.quick_config(cluster_router="teleporting")
            )
        with pytest.raises(ValueError, match="unknown backend"):
            run_bench(
                BenchConfig.quick_config(cluster_backends=("tpu",))
            )

    def test_autoscale_knob_validation(self):
        with pytest.raises(ValueError, match="autoscale_windows"):
            BenchConfig(autoscale_windows=0)
        with pytest.raises(ValueError, match="unknown autoscale_policy"):
            run_bench(
                BenchConfig.quick_config(autoscale_policy="warp-drive")
            )

    def test_serving_knob_validation(self):
        with pytest.raises(ValueError):
            BenchConfig(slo_ms=0.0)
        with pytest.raises(ValueError):
            BenchConfig(serve_duration_s=-1.0)
        with pytest.raises(ValueError):
            BenchConfig(serve_processes=())
        with pytest.raises(ValueError):
            BenchConfig(serve_processes=("poisson", "poisson"))
        with pytest.raises(ValueError, match="unknown serve_processes"):
            BenchConfig(serve_processes=("sawtooth",))
        with pytest.raises(ValueError):
            BenchConfig(serve_utilisations=())
        with pytest.raises(ValueError):
            BenchConfig(serve_utilisations=(0.5, -0.1))

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            run_bench(BenchConfig(models=("medium",)))
        with pytest.raises(ValueError, match="unknown backend"):
            run_bench(BenchConfig.quick_config(backends=("tpu",)))

    def test_default_output_path(self):
        assert default_output_path("quick") == "BENCH_quick.json"

    def test_budget_multiplier_validation(self):
        with pytest.raises(ValueError, match="wall_clock_budget_multiplier"):
            BenchConfig(wall_clock_budget_multiplier=0.0)
        with pytest.raises(ValueError, match="wall_clock_budget_multiplier"):
            BenchConfig(wall_clock_budget_multiplier=-3.0)

    @pytest.mark.parametrize(
        "field",
        [
            "wall_clock_budget_multiplier",
            "tiering_alpha",
            "target_qps",
            "slo_ms",
            "serve_duration_s",
            "cluster_utilisation",
            "sharding_node_gb",
            "serve_utilisations",
        ],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_knob_names_its_field(self, field, value):
        # Before, a NaN multiplier failed only after the whole sweep (the
        # schema rejected the stamped budgets), and a NaN or infinite
        # alpha slipped past a bare `< 0`, failing later as `alpha`; the
        # other fields' bare `<= 0` let NaN and inf construct.
        if field == "serve_utilisations":
            value = (0.5, value)
        with pytest.raises(ValueError, match=field):
            BenchConfig(**{field: value})

    def test_tiering_knob_validation(self):
        with pytest.raises(ValueError, match="tiering_alpha"):
            BenchConfig(tiering_alpha=-0.1)
        with pytest.raises(ValueError, match="tiering_hot_fraction"):
            BenchConfig(tiering_hot_fraction=0.0)
        with pytest.raises(ValueError, match="tiering_hot_fraction"):
            BenchConfig(tiering_hot_fraction=0.5)
        with pytest.raises(ValueError, match="unknown tiering_policy"):
            run_bench(BenchConfig.quick_config(tiering_policy="belady"))


class TestRunBench:
    def test_payload_validates(self, payload):
        assert validate_payload(payload) is payload
        assert payload["schema_version"] == SCHEMA_VERSION

    def test_covers_the_grid(self, payload, config):
        pairs = {(r["model"], r["backend"]) for r in payload["results"]}
        assert pairs == {("small", b) for b in BACKENDS}
        for result in payload["results"]:
            assert set(result["batch_latency_ms"]) == {"1", "64"}
            assert result["wall_clock_s"] >= 0
        assert payload["config"]["batches"] == list(config.batches)

    def test_batched_latency_grows_with_batch(self, payload):
        for result in payload["results"]:
            if result["backend"] == "fpga":
                continue
            curve = result["batch_latency_ms"]
            assert curve["64"] > curve["1"]

    def test_planner_stats_only_for_planning_backends(self, payload):
        by_backend = {r["backend"]: r for r in payload["results"]}
        assert by_backend["fpga"]["planner"] is not None
        assert "merged_groups" in by_backend["fpga"]["planner"]
        for name in ("cpu", "gpu", "nmp"):
            assert by_backend[name]["planner"] is None

    def test_perf_matches_session_estimates(self, payload):
        by_backend = {r["backend"]: r for r in payload["results"]}
        fpga, cpu = by_backend["fpga"]["perf"], by_backend["cpu"]["perf"]
        assert fpga["usd_per_million_queries"] < cpu["usd_per_million_queries"]
        assert fpga["latency_us"] < cpu["latency_us"]

    def test_serving_block_covers_processes(self, payload, config):
        for result in payload["results"]:
            serving = result["serving"]
            assert set(serving["processes"]) == set(config.serve_processes)
            for curve in serving["processes"].values():
                assert len(curve["points"]) == len(config.serve_utilisations)
                for point in curve["points"]:
                    assert 0.0 <= point["sla_attainment"] <= 1.0
            assert serving["fleet_sla"] is not None
            assert (
                serving["fleet_sla"]["nodes"]
                >= serving["fleet_sla"]["throughput_only_nodes"]
            )

    def test_cluster_block_present_and_consistent(self, payload, config):
        cluster = payload["cluster"]
        assert cluster is not None
        assert cluster["tiers"] == list(config.cluster_backends)
        assert cluster["router"] == config.cluster_router
        result = cluster["result"]
        assert result["queries"] > 0
        assert sum(t["queries"] for t in result["tiers"].values()) == (
            result["queries"]
        )
        assert 0.0 <= result["blended"]["sla_attainment"] <= 1.0
        assert payload["config"]["cluster_backends"] == list(
            config.cluster_backends
        )

    def test_cluster_block_can_be_disabled(self, config):
        quiet = BenchConfig.quick_config(
            backends=("cpu",), batches=(1,), max_rows=128,
            cluster_backends=(), name="noclust",
        )
        payload = run_bench(quiet)
        assert payload["cluster"] is None
        assert validate_payload(payload) is payload

    def test_autoscale_block_present_and_consistent(self, payload, config):
        autoscale = payload["autoscale"]
        assert autoscale is not None
        assert autoscale["policy"] == config.autoscale_policy
        assert autoscale["backend"] == config.resolved_backends()[0]
        result = autoscale["result"]
        assert len(result["timeline"]) == config.autoscale_windows
        aggregate = result["aggregate"]
        assert 0.0 <= aggregate["sla_attainment"] <= 1.0
        assert aggregate["usd_total"] > 0
        # The elastic fleet genuinely moved on the diurnal trace.
        assert aggregate["peak_nodes"] > aggregate["min_nodes"]
        assert payload["config"]["autoscale_policy"] == (
            config.autoscale_policy
        )

    def test_autoscale_block_can_be_disabled(self):
        quiet = BenchConfig.quick_config(
            backends=("cpu",), batches=(1,), max_rows=128,
            autoscale_policy="", name="noauto",
        )
        payload = run_bench(quiet)
        assert payload["autoscale"] is None
        assert validate_payload(payload) is payload

    def test_tiering_block_present_and_consistent(self, payload, config):
        tiering = payload["tiering"]
        assert tiering is not None
        assert tiering["model"] == config.models[0]
        assert tiering["backend"] == config.resolved_backends()[0]
        assert tiering["policy"] == config.tiering_policy
        assert [t["name"] for t in tiering["hierarchy"]["tiers"]] == [
            "hbm", "ddr", "host",
        ]
        assert tiering["popularity"]["alpha"] == config.tiering_alpha
        steady = tiering["steady_state"]
        assert 0.0 < steady["hit_rate"] <= 1.0
        assert steady["effective_lookup_ns"] >= steady["hot_lookup_ns"]
        # The block's whole point: cold caches cost tail latency.
        for warm, cold in zip(
            tiering["warm"]["points"], tiering["cold"]["points"]
        ):
            assert warm["rate_per_s"] == cold["rate_per_s"]
            assert cold["p99_ms"] > warm["p99_ms"]
        assert payload["config"]["tiering_policy"] == config.tiering_policy

    def test_tiering_block_can_be_disabled(self):
        quiet = BenchConfig.quick_config(
            backends=("cpu",), batches=(1,), max_rows=128,
            tiering_policy="", name="notier",
        )
        payload = run_bench(quiet)
        assert payload["tiering"] is None
        assert validate_payload(payload) is payload

    def test_pipelined_engines_hold_sla_capacity(self, payload):
        # The paper's claim in artifact form: under Poisson load at the
        # swept utilisations, the pipelined fpga keeps p99 under the SLO
        # everywhere (full SLA capacity) while the batched cpu does not
        # hold its highest swept rate.
        by_backend = {r["backend"]: r for r in payload["results"]}
        fpga = by_backend["fpga"]["serving"]["processes"]["poisson"]
        top_rate = max(p["rate_per_s"] for p in fpga["points"])
        assert fpga["sla_capacity_per_s"] == pytest.approx(top_rate)
        cpu = by_backend["cpu"]["serving"]["processes"]["poisson"]
        cpu_top = max(p["rate_per_s"] for p in cpu["points"])
        assert cpu["sla_capacity_per_s"] < cpu_top

    def test_budget_stamping(self):
        config = BenchConfig.quick_config(
            backends=("cpu",), batches=(1,), max_rows=128,
            cluster_backends=(), autoscale_policy="", sharding_strategy="",
            name="budgeted", wall_clock_budget_multiplier=3.0,
        )
        stamped = run_bench(config)
        assert validate_payload(stamped) is stamped
        for result in stamped["results"]:
            assert result["wall_clock_budget_s"] == pytest.approx(
                3.0 * result["wall_clock_s"]
            )
        assert stamped["config"]["wall_clock_budget_multiplier"] == 3.0

    def test_unstamped_results_carry_no_budget(self, payload):
        for result in payload["results"]:
            assert "wall_clock_budget_s" not in result
        assert payload["config"]["wall_clock_budget_multiplier"] is None


class TestValidator:
    def test_rejects_wrong_version(self, payload):
        for bad_version in (SCHEMA_VERSION + 1, True, str(SCHEMA_VERSION)):
            bad = copy.deepcopy(payload)
            bad["schema_version"] = bad_version
            with pytest.raises(BenchSchemaError, match="schema_version"):
                validate_payload(bad)

    def test_rejects_wrong_suite(self, payload):
        bad = copy.deepcopy(payload)
        bad["suite"] = "someone-elses-json"
        with pytest.raises(BenchSchemaError, match="suite"):
            validate_payload(bad)

    def test_rejects_missing_key(self, payload):
        bad = copy.deepcopy(payload)
        del bad["results"][0]["perf"]["latency_us"]
        with pytest.raises(BenchSchemaError, match="latency_us"):
            validate_payload(bad)

    def test_rejects_nonpositive_metric(self, payload):
        bad = copy.deepcopy(payload)
        bad["results"][0]["perf"]["throughput_items_per_s"] = 0
        with pytest.raises(BenchSchemaError, match="throughput_items_per_s"):
            validate_payload(bad)

    def test_rejects_non_finite_metric(self, payload):
        for poison in (float("nan"), float("inf")):
            bad = copy.deepcopy(payload)
            bad["results"][0]["perf"]["latency_us"] = poison
            with pytest.raises(BenchSchemaError, match="finite"):
                validate_payload(bad)
            bad = copy.deepcopy(payload)
            bad["config"]["serve_utilisations"][-1] = poison
            with pytest.raises(
                BenchSchemaError,
                match=r"serve_utilisations\[\d+\]: expected a finite",
            ):
                validate_payload(bad)

    def test_rejects_bad_batch_key(self, payload):
        bad = copy.deepcopy(payload)
        bad["results"][0]["batch_latency_ms"]["not-a-batch"] = 1.0
        with pytest.raises(BenchSchemaError, match="batch keys"):
            validate_payload(bad)

    def test_rejects_duplicate_pairs(self, payload):
        bad = copy.deepcopy(payload)
        bad["results"].append(copy.deepcopy(bad["results"][0]))
        with pytest.raises(BenchSchemaError, match="duplicate"):
            validate_payload(bad)

    def test_rejects_non_object(self):
        with pytest.raises(BenchSchemaError):
            validate_payload([1, 2, 3])

    def test_rejects_missing_serving_block(self, payload):
        bad = copy.deepcopy(payload)
        del bad["results"][0]["serving"]
        with pytest.raises(BenchSchemaError, match="serving"):
            validate_payload(bad)

    def test_rejects_empty_serving_processes(self, payload):
        bad = copy.deepcopy(payload)
        bad["results"][0]["serving"]["processes"] = {}
        with pytest.raises(BenchSchemaError, match="processes"):
            validate_payload(bad)

    def test_rejects_bad_curve_point(self, payload):
        bad = copy.deepcopy(payload)
        curve = next(iter(bad["results"][0]["serving"]["processes"].values()))
        curve["points"][0]["p99_ms"] = 0
        with pytest.raises(BenchSchemaError, match="p99_ms"):
            validate_payload(bad)
        bad = copy.deepcopy(payload)
        curve = next(iter(bad["results"][0]["serving"]["processes"].values()))
        curve["points"][0]["sla_attainment"] = 1.5
        with pytest.raises(BenchSchemaError, match="sla_attainment"):
            validate_payload(bad)

    def test_rejects_bad_fleet_sla(self, payload):
        bad = copy.deepcopy(payload)
        bad["results"][0]["serving"]["fleet_sla"]["throughput_only_nodes"] = 0
        with pytest.raises(BenchSchemaError, match="throughput_only_nodes"):
            validate_payload(bad)

    def test_null_fleet_sla_allowed(self, payload):
        ok = copy.deepcopy(payload)
        ok["results"][0]["serving"]["fleet_sla"] = None
        assert validate_payload(ok) is ok

    def test_rejects_missing_cluster_key(self, payload):
        bad = copy.deepcopy(payload)
        del bad["cluster"]
        with pytest.raises(BenchSchemaError, match="cluster"):
            validate_payload(bad)

    def test_null_cluster_allowed(self, payload):
        ok = copy.deepcopy(payload)
        ok["cluster"] = None
        assert validate_payload(ok) is ok

    def test_rejects_bad_cluster_block(self, payload):
        bad = copy.deepcopy(payload)
        bad["cluster"]["result"]["blended"]["p99_ms"] = 0
        with pytest.raises(BenchSchemaError, match=r"blended.p99_ms"):
            validate_payload(bad)
        bad = copy.deepcopy(payload)
        bad["cluster"]["result"]["tiers"] = {}
        with pytest.raises(BenchSchemaError, match="tiers"):
            validate_payload(bad)
        bad = copy.deepcopy(payload)
        tier = next(iter(bad["cluster"]["result"]["tiers"].values()))
        tier["share"] = 1.7
        with pytest.raises(BenchSchemaError, match="share"):
            validate_payload(bad)

    def test_rejects_missing_cluster_config_knobs(self, payload):
        for knob in ("cluster_backends", "cluster_router",
                     "cluster_utilisation"):
            bad = copy.deepcopy(payload)
            del bad["config"][knob]
            with pytest.raises(BenchSchemaError, match=knob):
                validate_payload(bad)

    def test_rejects_missing_autoscale_key(self, payload):
        bad = copy.deepcopy(payload)
        del bad["autoscale"]
        with pytest.raises(BenchSchemaError, match="autoscale"):
            validate_payload(bad)

    def test_null_autoscale_allowed(self, payload):
        ok = copy.deepcopy(payload)
        ok["autoscale"] = None
        assert validate_payload(ok) is ok

    def test_rejects_bad_autoscale_block(self, payload):
        bad = copy.deepcopy(payload)
        bad["autoscale"]["result"]["timeline"][0]["nodes"] = 0
        with pytest.raises(BenchSchemaError, match="nodes"):
            validate_payload(bad)
        bad = copy.deepcopy(payload)
        bad["autoscale"]["result"]["timeline"] = []
        with pytest.raises(BenchSchemaError, match="timeline"):
            validate_payload(bad)
        bad = copy.deepcopy(payload)
        bad["autoscale"]["result"]["aggregate"]["sla_attainment"] = 1.2
        with pytest.raises(BenchSchemaError, match="sla_attainment"):
            validate_payload(bad)
        # Negative savings are legitimate (elasticity cost more).
        ok = copy.deepcopy(payload)
        ok["autoscale"]["result"]["aggregate"]["usd_savings_vs_static"] = (
            -0.5
        )
        assert validate_payload(ok) is ok

    def test_null_autoscale_static_baseline_allowed(self, payload):
        ok = copy.deepcopy(payload)
        ok["autoscale"]["result"]["static_baseline"] = None
        assert validate_payload(ok) is ok

    def test_rejects_missing_autoscale_config_knobs(self, payload):
        for knob in ("autoscale_policy", "autoscale_windows"):
            bad = copy.deepcopy(payload)
            del bad["config"][knob]
            with pytest.raises(BenchSchemaError, match=knob):
                validate_payload(bad)

    def test_rejects_missing_tiering_key(self, payload):
        bad = copy.deepcopy(payload)
        del bad["tiering"]
        with pytest.raises(BenchSchemaError, match="tiering"):
            validate_payload(bad)

    def test_null_tiering_allowed(self, payload):
        ok = copy.deepcopy(payload)
        ok["tiering"] = None
        assert validate_payload(ok) is ok

    def test_rejects_bad_tiering_block(self, payload):
        bad = copy.deepcopy(payload)
        bad["tiering"]["steady_state"]["hit_rate"] = 1.5
        with pytest.raises(BenchSchemaError, match="hit_rate"):
            validate_payload(bad)
        bad = copy.deepcopy(payload)
        bad["tiering"]["hierarchy"]["tiers"] = (
            bad["tiering"]["hierarchy"]["tiers"][:1]
        )
        with pytest.raises(BenchSchemaError, match="tiers"):
            validate_payload(bad)
        bad = copy.deepcopy(payload)
        bad["tiering"]["hierarchy"]["tiers"][0]["access_ns"] = 0
        with pytest.raises(BenchSchemaError, match="access_ns"):
            validate_payload(bad)
        bad = copy.deepcopy(payload)
        bad["tiering"]["popularity"]["alpha"] = -1.0
        with pytest.raises(BenchSchemaError, match="alpha"):
            validate_payload(bad)

    def test_rejects_missing_tiering_config_knobs(self, payload):
        for knob in ("tiering_policy", "tiering_alpha",
                     "tiering_hot_fraction"):
            bad = copy.deepcopy(payload)
            del bad["config"][knob]
            with pytest.raises(BenchSchemaError, match=knob):
                validate_payload(bad)

    def test_rejects_missing_serving_config_knobs(self, payload):
        for knob in ("slo_ms", "serve_duration_s", "serve_processes",
                     "serve_utilisations"):
            bad = copy.deepcopy(payload)
            del bad["config"][knob]
            with pytest.raises(BenchSchemaError, match=knob):
                validate_payload(bad)

    def test_wall_clock_budget_optional(self, payload):
        ok = copy.deepcopy(payload)
        ok["results"][0]["wall_clock_budget_s"] = None
        assert validate_payload(ok) is ok
        ok["results"][0]["wall_clock_budget_s"] = 12.5
        assert validate_payload(ok) is ok

    def test_wall_clock_budget_rejects_bad_values(self, payload):
        for poison in (0, -1.0, float("nan"), "3"):
            bad = copy.deepcopy(payload)
            bad["results"][0]["wall_clock_budget_s"] = poison
            with pytest.raises(
                BenchSchemaError, match="wall_clock_budget_s"
            ):
                validate_payload(bad)

    def test_write_refuses_invalid(self, payload, tmp_path):
        bad = copy.deepcopy(payload)
        bad["results"] = []
        with pytest.raises(BenchSchemaError):
            write_payload(bad, str(tmp_path / "bad.json"))

    def test_validate_file_round_trip(self, payload, tmp_path):
        path = tmp_path / "BENCH_rt.json"
        write_payload(payload, str(path))
        assert validate_file(str(path))["name"] == payload["name"]
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        with pytest.raises(BenchSchemaError, match="not valid JSON"):
            validate_file(str(garbage))


def _leaves(value, path="$"):
    """Yield (JSON path, parent container, key) for every leaf."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        child = f"{path}.{key}" if isinstance(value, dict) else f"{path}[{key}]"
        if isinstance(item, (dict, list)) and item:
            yield from _leaves(item, child)
        else:
            yield child, value, key


def _locate(payload, steps):
    """(JSON path, parent container, key) at the end of ``steps``.

    A step is a key, a list index, or a function picking one entry out
    of a list or map (the comparator's path language).
    """
    path, parent, key, value = "$", None, None, payload
    for step in steps:
        if callable(step):
            picked = step(value)
            items = (
                value.items() if isinstance(value, dict) else enumerate(value)
            )
            step = next(k for k, item in items if item is picked)
        path += f"[{step}]" if isinstance(value, list) else f".{step}"
        parent, key, value = value, step, value[step]
    return path, parent, key


class TestSpecCoverage:
    """Ties the schema spec to the committed artifact and the comparator."""

    @pytest.fixture
    def baseline(self):
        return json.loads(BASELINE.read_text(encoding="utf-8"))

    def _assert_rejected_at(self, payload, parent, key, path, poison):
        original = parent[key]
        parent[key] = poison
        try:
            with pytest.raises(BenchSchemaError) as info:
                validate_payload(payload)
            assert str(info.value).startswith(f"{path}: ")
        finally:
            parent[key] = original

    def test_every_pinned_leaf_is_checked(self, baseline):
        validate_payload(baseline)
        patterns = set()
        for path, parent, key in _leaves(baseline):
            pattern = re.sub(r"\[\d+\]", "[*]", path)
            patterns.add(pattern)
            if pattern in UNPINNED_LEAVES:
                original = parent[key]
                parent[key] = [0]
                validate_payload(baseline)
                parent[key] = original
            else:
                self._assert_rejected_at(baseline, parent, key, path, [0])
        # The exemptions name real leaves, so the list cannot go stale.
        assert UNPINNED_LEAVES <= patterns

    def test_comparator_reads_only_pinned_numbers(self, baseline):
        paths = [
            *(("results", 0, "perf", metric) for metric in METRICS),
            ("results", 0, "serving", "processes", "poisson",
             "sla_capacity_per_s"),
            ("results", 0, "serving", "fleet_sla", "nodes"),
        ]
        for block, (_, metrics) in BLOCK_METRICS.items():
            paths.extend((block, *steps) for steps, _ in metrics.values())
        for steps in paths:
            path, parent, key = _locate(baseline, steps)
            value = parent[key]
            assert isinstance(value, (int, float))
            assert not isinstance(value, bool)
            assert _read(baseline, steps) == value
            self._assert_rejected_at(baseline, parent, key, path, "x")


class TestCompare:
    def test_identical_payloads_have_zero_deltas(self, payload):
        comparison = compare_payloads(payload, payload)
        assert comparison["baseline_name"] == payload["name"]
        assert not comparison["removed"] and not comparison["added"]
        for entry in comparison["entries"]:
            for metric in entry["metrics"].values():
                assert metric["delta_pct"] == 0.0
        assert regressions(comparison) == []

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -1.0])
    def test_threshold_must_be_finite_and_non_negative(
        self, payload, threshold
    ):
        # A NaN threshold disarmed the gate: `delta > nan` is never true.
        with pytest.raises(ValueError, match="threshold_pct"):
            regressions(
                compare_payloads(payload, payload), threshold_pct=threshold
            )

    def test_detects_regression_and_membership_changes(self, payload):
        slower = copy.deepcopy(payload)
        slower["results"] = [
            r for r in slower["results"] if r["backend"] != "nmp"
        ]
        slower["results"][0]["perf"]["latency_us"] *= 2.0
        comparison = compare_payloads(payload, slower)
        assert comparison["removed"] == ["small/nmp"]
        lines = regressions(comparison)
        assert any("latency_us rose 100.0%" in line for line in lines)

    def test_serving_metrics_compared(self, payload, config):
        comparison = compare_payloads(payload, payload)
        entry = comparison["entries"][0]
        for process in config.serve_processes:
            assert f"sla_capacity_per_s:{process}" in entry["metrics"]
        assert "sla_nodes" in entry["metrics"]

    def test_sla_capacity_drop_is_a_regression(self, payload):
        worse = copy.deepcopy(payload)
        serving = worse["results"][0]["serving"]
        process = next(iter(serving["processes"]))
        serving["processes"][process]["sla_capacity_per_s"] *= 0.5
        lines = regressions(compare_payloads(payload, worse))
        assert any(
            f"sla_capacity_per_s:{process} fell 50.0%" in line
            for line in lines
        )

    def test_sla_fleet_growth_is_a_regression(self, payload):
        worse = copy.deepcopy(payload)
        worse["results"][0]["serving"]["fleet_sla"]["nodes"] *= 3
        lines = regressions(compare_payloads(payload, worse))
        assert any("sla_nodes rose 200.0%" in line for line in lines)

    def test_fleet_sla_going_null_is_a_regression(self, payload):
        # The SLO becoming unattainable (fleet_sla: {...} -> null) must
        # not vanish from the comparison.
        worse = copy.deepcopy(payload)
        worse["results"][0]["serving"]["fleet_sla"] = None
        comparison = compare_payloads(payload, worse)
        backend = payload["results"][0]["backend"]
        entry = next(
            e for e in comparison["entries"] if e["backend"] == backend
        )
        assert entry["metrics"]["sla_nodes"]["new"] is None
        lines = regressions(comparison)
        assert any(
            "sla_nodes disappeared" in line and f"/{backend}" in line
            for line in lines
        )
        # The reverse direction (newly attainable) is not a regression.
        assert not any(
            "sla_nodes" in line
            for line in regressions(compare_payloads(worse, payload))
        )

    def test_cluster_metrics_compared(self, payload):
        comparison = compare_payloads(payload, payload)
        assert set(comparison["cluster"]) == {
            "p99_ms", "sla_attainment", "usd_per_million_queries",
        }
        for record in comparison["cluster"].values():
            assert record["delta_pct"] == 0.0

    def test_cluster_p99_growth_is_a_regression(self, payload):
        worse = copy.deepcopy(payload)
        worse["cluster"]["result"]["blended"]["p99_ms"] *= 2.0
        lines = regressions(compare_payloads(payload, worse))
        assert any(
            "cluster/routed: p99_ms rose 100.0%" in line for line in lines
        )
        # Attainment falling is the other direction.
        worse = copy.deepcopy(payload)
        worse["cluster"]["result"]["blended"]["sla_attainment"] *= 0.5
        lines = regressions(compare_payloads(payload, worse))
        assert any("sla_attainment fell 50.0%" in line for line in lines)

    def test_missing_cluster_blocks_compare_gracefully(self, payload):
        without = copy.deepcopy(payload)
        without["cluster"] = None
        comparison = compare_payloads(payload, without)
        assert comparison["cluster"] is None
        assert not any(
            "cluster/routed" in line for line in regressions(comparison)
        )

    def test_autoscale_metrics_compared(self, payload):
        comparison = compare_payloads(payload, payload)
        assert set(comparison["autoscale"]) == {
            "mean_nodes", "usd_per_hour", "usd_per_million_queries",
            "sla_attainment",
        }
        for record in comparison["autoscale"].values():
            assert record["delta_pct"] == 0.0

    def test_autoscale_cost_growth_is_a_regression(self, payload):
        worse = copy.deepcopy(payload)
        worse["autoscale"]["result"]["aggregate"]["usd_per_hour"] *= 2.0
        lines = regressions(compare_payloads(payload, worse))
        assert any(
            "autoscale/elastic: usd_per_hour rose 100.0%" in line
            for line in lines
        )
        worse = copy.deepcopy(payload)
        worse["autoscale"]["result"]["aggregate"]["sla_attainment"] *= 0.5
        lines = regressions(compare_payloads(payload, worse))
        assert any("sla_attainment fell 50.0%" in line for line in lines)

    def test_missing_autoscale_blocks_compare_gracefully(self, payload):
        without = copy.deepcopy(payload)
        without["autoscale"] = None
        comparison = compare_payloads(payload, without)
        assert comparison["autoscale"] is None
        assert not any(
            "autoscale/elastic" in line for line in regressions(comparison)
        )

    def test_tiering_metrics_compared(self, payload):
        comparison = compare_payloads(payload, payload)
        assert set(comparison["tiering"]) == {
            "hit_rate", "warm_p99_ms", "cold_p99_ms",
        }
        for record in comparison["tiering"].values():
            assert record["delta_pct"] == 0.0

    def test_tiering_hit_rate_drop_is_a_regression(self, payload):
        worse = copy.deepcopy(payload)
        worse["tiering"]["steady_state"]["hit_rate"] *= 0.5
        lines = regressions(compare_payloads(payload, worse))
        assert any(
            "tiering/tiered: hit_rate fell 50.0%" in line for line in lines
        )

    def test_tiering_cold_p99_rise_is_a_regression(self, payload):
        worse = copy.deepcopy(payload)
        for point in worse["tiering"]["cold"]["points"]:
            point["p99_ms"] *= 2.0
        lines = regressions(compare_payloads(payload, worse))
        assert any("cold_p99_ms rose 100.0%" in line for line in lines)

    def test_missing_tiering_blocks_compare_gracefully(self, payload):
        without = copy.deepcopy(payload)
        without["tiering"] = None
        comparison = compare_payloads(payload, without)
        assert comparison["tiering"] is None
        assert not any(
            "tiering/tiered" in line for line in regressions(comparison)
        )

    def test_wall_clock_budget_gate(self, payload):
        budgeted = copy.deepcopy(payload)
        for result in budgeted["results"]:
            result["wall_clock_budget_s"] = result["wall_clock_s"] + 1e6
        comparison = compare_payloads(budgeted, payload)
        entries = comparison["wall_clock"]["entries"]
        assert len(entries) == len(payload["results"])
        assert all(e["within_budget"] for e in entries)
        assert not any(
            "exceeds budget" in line for line in regressions(comparison)
        )
        # An over-budget pair trips regardless of the percentage
        # threshold: budgets are absolute ceilings, not deltas.
        tight = copy.deepcopy(budgeted)
        tight["results"][0]["wall_clock_budget_s"] = (
            payload["results"][0]["wall_clock_s"] / 2
        )
        lines = regressions(
            compare_payloads(tight, payload), threshold_pct=1e9
        )
        assert len(lines) == 1 and "exceeds budget" in lines[0]

    def test_wall_clock_budget_scale_loosens_fleet_wide(self, payload):
        tight = copy.deepcopy(payload)
        for result in tight["results"]:
            result["wall_clock_budget_s"] = result["wall_clock_s"] / 2
        tripped = compare_payloads(tight, payload)
        assert not all(
            e["within_budget"] for e in tripped["wall_clock"]["entries"]
        )
        loosened = compare_payloads(
            tight, payload, wall_clock_budget_scale=1e9
        )
        assert all(
            e["within_budget"] for e in loosened["wall_clock"]["entries"]
        )
        with pytest.raises(ValueError, match="wall_clock_budget_scale"):
            compare_payloads(tight, payload, wall_clock_budget_scale=0.0)

    def test_unbudgeted_pairs_produce_no_wall_clock_entries(self, payload):
        comparison = compare_payloads(payload, payload)
        assert comparison["wall_clock"]["entries"] == []

    def test_results_without_serving_yield_no_serving_metrics(self, payload):
        # The metric flattener (not the validator) is what keeps the
        # comparison graceful for results lacking a serving block.
        from repro.bench.compare import _serving_metrics

        stripped = {
            k: v for k, v in payload["results"][0].items() if k != "serving"
        }
        assert _serving_metrics(stripped) == {}
        assert _serving_metrics(payload["results"][0]) != {}


class TestCliBench:
    ARGS: ClassVar[list[str]] = [
        "bench", "--quick", "--backend", "fpga", "--backend", "cpu",
        "--batch", "1", "--batch", "64", "--max-rows", "128",
    ]

    def test_json_stdout_is_pure(self, capsys, tmp_path):
        out_path = tmp_path / "BENCH_ci.json"
        assert main([*self.ARGS, "--json", "--output", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert out.lstrip().startswith("{")
        parsed = json.loads(out)
        assert validate_payload(parsed)["config"]["quick"] is True
        # The artifact file is also written and identical in content.
        assert validate_file(str(out_path))["name"] == parsed["name"]

    def test_compare_flag(self, capsys, tmp_path):
        baseline = tmp_path / "BENCH_base.json"
        assert main([*self.ARGS, "--json", "--output", str(baseline)]) == 0
        capsys.readouterr()
        fresh = tmp_path / "BENCH_fresh.json"
        assert main(
            [*self.ARGS,
             "--json", "--output", str(fresh), "--compare", str(baseline)]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["comparison"]["baseline_name"] == "quick"
        assert payload["comparison"]["entries"]

    def test_human_output(self, capsys, tmp_path):
        out_path = tmp_path / "BENCH_h.json"
        assert main([*self.ARGS, "--output", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "small/fpga" in out
        assert "us/query" in out

    def test_fail_on_regression_gate(self, capsys, tmp_path):
        baseline = tmp_path / "BENCH_gate.json"
        assert main([*self.ARGS, "--json", "--output", str(baseline)]) == 0
        capsys.readouterr()
        # Same sweep vs itself: deltas are zero, the gate stays open.
        assert main(
            [*self.ARGS,
             "--output", str(tmp_path / "BENCH_same.json"),
             "--compare", str(baseline), "--fail-on-regression"]
        ) == 0
        capsys.readouterr()
        # Inflate the baseline's throughput: the fresh run now "regressed".
        doctored = json.loads(baseline.read_text())
        for result in doctored["results"]:
            result["perf"]["throughput_items_per_s"] *= 10.0
        fast_baseline = tmp_path / "BENCH_fast.json"
        write_payload(doctored, str(fast_baseline))
        assert main(
            [*self.ARGS,
             "--output", str(tmp_path / "BENCH_slow.json"),
             "--compare", str(fast_baseline), "--fail-on-regression", "5"]
        ) == 1
        captured = capsys.readouterr()
        assert "regression" in captured.err

    def test_non_finite_regression_threshold_exits_2(self, capsys, tmp_path):
        # A baseline twice as fast as this sweep: every latency regressed.
        args = ["bench", "--quick", "--backend", "cpu", "--batch", "1",
                "--max-rows", "128"]
        baseline = tmp_path / "BENCH_base.json"
        assert main([*args, "--json", "--output", str(baseline)]) == 0
        doctored = json.loads(baseline.read_text())
        for result in doctored["results"]:
            result["perf"]["latency_us"] /= 2
        halved = tmp_path / "BENCH_halved.json"
        write_payload(doctored, str(halved))
        compare = [*args, "--output", str(tmp_path / "BENCH_new.json"),
                   "--compare", str(halved)]
        capsys.readouterr()
        assert main([*compare, "--fail-on-regression", "5"]) == 1
        assert "regression: small/cpu" in capsys.readouterr().err
        # Before, NaN and inf disarmed the gate and these exited 0.
        for value in ("nan", "inf", "-1"):
            assert main([*compare, f"--fail-on-regression={value}"]) == 2
            captured = capsys.readouterr()
            assert "--fail-on-regression" in captured.err
            assert "Traceback" not in captured.err

    def test_unreadable_baseline_fails_before_the_sweep(
        self, capsys, tmp_path
    ):
        assert main(
            ["bench", "--quick", "--backend", "cpu", "--batch", "1",
             "--max-rows", "128", "--output", str(tmp_path / "x.json"),
             "--compare", str(tmp_path / "missing.json")]
        ) == 2
        err = capsys.readouterr().err
        assert "--compare baseline rejected" in err
        assert "bench small/cpu" not in err  # no engine was built
        assert not (tmp_path / "x.json").exists()

    def test_non_finite_qps_fails_before_the_config_summary(
        self, capsys, tmp_path
    ):
        # Before, the summary printed `target_qps=nan` before the first
        # fleet sizing rejected it.
        assert main(
            ["bench", "--quick", "--qps=nan",
             "--output", str(tmp_path / "x.json")]
        ) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "target_qps must be positive and finite, got nan\n"
        assert not (tmp_path / "x.json").exists()

    def test_fail_on_regression_requires_compare(self, capsys, tmp_path):
        assert main(
            ["bench", "--quick", "--backend", "cpu", "--batch", "1",
             "--max-rows", "128", "--fail-on-regression",
             "--output", str(tmp_path / "x.json")]
        ) == 2
        assert "--compare" in capsys.readouterr().err

    def test_backend_filter_applies_to_cluster_block(self, capsys, tmp_path):
        # Restricting the sweep must not silently build other engines
        # for the cluster block: the block follows --backend unless the
        # tiers are chosen explicitly.
        assert main(
            ["bench", "--quick", "--backend", "cpu", "--batch", "1",
             "--max-rows", "128", "--json",
             "--output", str(tmp_path / "c1.json")]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cluster"]["tiers"] == ["cpu"]
        assert main(
            ["bench", "--quick", "--backend", "cpu", "--batch", "1",
             "--max-rows", "128", "--cluster-backend", "cpu",
             "--cluster-backend", "fpga", "--cluster-router",
             "least-loaded", "--json",
             "--output", str(tmp_path / "c2.json")]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cluster"]["tiers"] == ["cpu", "fpga"]
        assert payload["cluster"]["router"] == "least-loaded"

    def test_no_autoscale_flag(self, capsys, tmp_path):
        assert main(
            ["bench", "--quick", "--backend", "cpu", "--batch", "1",
             "--max-rows", "128", "--no-autoscale", "--json",
             "--output", str(tmp_path / "na.json")]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["autoscale"] is None
        assert validate_payload(payload) is payload
        assert main(
            ["bench", "--quick", "--no-autoscale", "--autoscale-policy",
             "static", "--output", str(tmp_path / "x.json")]
        ) == 2

    def test_autoscale_policy_flag(self, capsys, tmp_path):
        assert main(
            ["bench", "--quick", "--backend", "cpu", "--batch", "1",
             "--max-rows", "128", "--autoscale-policy",
             "predictive-trace", "--autoscale-windows", "6", "--json",
             "--output", str(tmp_path / "ap.json")]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["autoscale"]["policy"] == "predictive-trace"
        assert len(payload["autoscale"]["result"]["timeline"]) == 6

    def test_no_cluster_flag(self, capsys, tmp_path):
        assert main(
            ["bench", "--quick", "--backend", "cpu", "--batch", "1",
             "--max-rows", "128", "--no-cluster", "--json",
             "--output", str(tmp_path / "nc.json")]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cluster"] is None
        assert validate_payload(payload) is payload
        assert main(
            ["bench", "--quick", "--no-cluster", "--cluster-backend",
             "cpu", "--output", str(tmp_path / "x.json")]
        ) == 2

    def test_no_tiering_flag(self, capsys, tmp_path):
        assert main(
            ["bench", "--quick", "--backend", "cpu", "--batch", "1",
             "--max-rows", "128", "--no-tiering", "--json",
             "--output", str(tmp_path / "nt.json")]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tiering"] is None
        assert validate_payload(payload) is payload
        # Disabling and configuring tiering at once is contradictory.
        assert main(
            ["bench", "--quick", "--no-tiering", "--tiering-policy",
             "lfu", "--output", str(tmp_path / "y.json")]
        ) == 2

    def test_tiering_policy_flag_round_trips(self, capsys, tmp_path):
        assert main(
            ["bench", "--quick", "--backend", "cpu", "--batch", "1",
             "--max-rows", "128", "--tiering-policy", "lfu",
             "--tiering-alpha", "1.2", "--json",
             "--output", str(tmp_path / "tp.json")]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tiering"]["policy"] == "lfu"
        assert payload["config"]["tiering_policy"] == "lfu"
        assert payload["config"]["tiering_alpha"] == 1.2

    WC_ARGS: ClassVar[list[str]] = [
        "bench", "--quick", "--backend", "cpu", "--batch", "1",
        "--max-rows", "128", "--no-cluster", "--no-autoscale",
        "--no-sharding",
    ]

    def test_stamp_wall_clock_budgets_flag(self, capsys, tmp_path):
        out_path = tmp_path / "BENCH_stamped.json"
        assert main(
            [*self.WC_ARGS,
             "--json", "--output", str(out_path),
             "--stamp-wall-clock-budgets", "3"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        for result in payload["results"]:
            assert result["wall_clock_budget_s"] == pytest.approx(
                3.0 * result["wall_clock_s"]
            )

    def test_wall_clock_budget_cli_gate(self, capsys, tmp_path):
        baseline = tmp_path / "BENCH_wc.json"
        assert main(
            [*self.WC_ARGS,
             "--json", "--output", str(baseline),
             "--stamp-wall-clock-budgets", "1000"]
        ) == 0
        capsys.readouterr()
        # Generously stamped budgets: the gate stays open (the huge PCT
        # keeps ordinary metric noise out of the way).
        assert main(
            [*self.WC_ARGS,
             "--output", str(tmp_path / "BENCH_ok.json"),
             "--compare", str(baseline),
             "--fail-on-regression", "1000000000"]
        ) == 0
        capsys.readouterr()
        # Doctor the budgets to an impossible ceiling: the gate trips on
        # the exceedance alone.
        doctored = json.loads(baseline.read_text())
        for result in doctored["results"]:
            result["wall_clock_budget_s"] = 1e-9
        tight = tmp_path / "BENCH_tightwc.json"
        write_payload(doctored, str(tight))
        assert main(
            [*self.WC_ARGS,
             "--output", str(tmp_path / "BENCH_over.json"),
             "--compare", str(tight),
             "--fail-on-regression", "1000000000"]
        ) == 1
        assert "exceeds budget" in capsys.readouterr().err
        # The fleet-wide scale loosens the same baseline without edits.
        assert main(
            [*self.WC_ARGS,
             "--output", str(tmp_path / "BENCH_loose.json"),
             "--compare", str(tight),
             "--fail-on-regression", "1000000000",
             "--wall-clock-budget-scale", "1e12"]
        ) == 0

    def test_bad_budget_scale_exits_2(self, capsys, tmp_path):
        assert main(
            [*self.WC_ARGS,
             "--output", str(tmp_path / "x.json"),
             "--wall-clock-budget-scale", "-1"]
        ) == 2
        assert "--wall-clock-budget-scale" in capsys.readouterr().err

    def test_duplicate_backend_rejected_up_front(self, tmp_path):
        assert main(
            ["bench", "--quick", "--backend", "cpu", "--backend", "cpu",
             "--output", str(tmp_path / "x.json")]
        ) == 2

    def test_unknown_backend_exits_2(self, tmp_path):
        assert main(
            ["bench", "--quick", "--backend", "tpu",
             "--output", str(tmp_path / "x.json")]
        ) == 2

    def test_bad_name_exits_2(self, tmp_path):
        assert main(["bench", "--quick", "--name", "../escape"]) == 2


class TestSchemaCliModule:
    def test_main_ok_and_fail(self, payload, tmp_path, capsys):
        from repro.bench import schema

        good = tmp_path / "BENCH_ok.json"
        write_payload(payload, str(good))
        assert schema.main([str(good)]) == 0
        assert "ok" in capsys.readouterr().out
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text(json.dumps({"suite": "repro-bench"}))
        assert schema.main([str(bad)]) == 1
        assert schema.main([]) == 2


class TestJsonPurity:
    """CI pipes --json output straight into ``python -m json.tool``."""

    def test_info_json_emits_only_json(self, capsys):
        assert main(["info", "--json"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("{") and out.endswith("}")
        payload = json.loads(out)
        assert "gpu" in payload["backends"]
        assert "nmp" in payload["backends"]

    def test_bench_progress_goes_to_stderr(self, capsys, tmp_path):
        out_path = tmp_path / "BENCH_p.json"
        assert main(
            ["bench", "--quick", "--backend", "cpu", "--batch", "1",
             "--max-rows", "128", "--json", "--output", str(out_path)]
        ) == 0
        captured = capsys.readouterr()
        json.loads(captured.out)
        assert "bench small/cpu" in captured.err
        assert "wrote" in captured.err
