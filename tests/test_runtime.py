"""Tests for the unified runtime API: registry, sessions, deploy_model, CLI."""

import json

import numpy as np
import pytest

import repro
from repro import (
    MicroRecEngine,
    PerfEstimate,
    QueryGenerator,
    UnknownBackendError,
    available_backends,
    deploy_model,
    get_backend,
    register_backend,
)
from repro.cli import main
from repro.cpu.baseline import CpuBaselineEngine
from repro.core.tables import make_tables
from repro.deploy.capacity import plan_fleet_for
from repro.models.mlp import Mlp
from repro.models.spec import production_small
from repro.serving.queueing import ServingResult

MAX_ROWS = 512


@pytest.fixture(scope="module")
def scaled_model():
    return production_small().scaled(max_rows=MAX_ROWS)


@pytest.fixture(scope="module")
def queries(scaled_model):
    return QueryGenerator(scaled_model, seed=0).batch(64)


class TestRegistry:
    def test_builtin_backends_registered(self):
        names = available_backends()
        assert {"fpga", "fpga-compressed", "cpu"} <= set(names)
        assert names == tuple(sorted(names))

    def test_unknown_backend_error_lists_names(self):
        with pytest.raises(UnknownBackendError) as err:
            get_backend("tpu")
        message = str(err.value)
        assert "tpu" in message
        for name in available_backends():
            assert name in message

    def test_get_backend_returns_named_backend(self):
        for name in available_backends():
            assert get_backend(name).name == name

    def test_register_rejects_duplicates_and_anonymous(self):
        fpga = get_backend("fpga")
        with pytest.raises(ValueError):
            register_backend(fpga)
        with pytest.raises(ValueError):
            register_backend(object())
        # Explicit replacement is allowed (and restores the original).
        assert register_backend(fpga, replace=True) is fpga

    def test_register_replace_swaps_and_is_required(self):
        from repro.runtime.backend import _REGISTRY

        class Stub:
            name = "stub-backend-test"

            def build(self, model, **knobs):
                raise NotImplementedError

        first, second = Stub(), Stub()
        assert register_backend(first) is first
        try:
            assert get_backend("stub-backend-test") is first
            # Re-registering the name without replace=True must raise and
            # leave the original registration untouched.
            with pytest.raises(ValueError, match="replace=True"):
                register_backend(second)
            assert get_backend("stub-backend-test") is first
            # With replace=True the new backend takes over.
            assert register_backend(second, replace=True) is second
            assert get_backend("stub-backend-test") is second
        finally:
            del _REGISTRY.entries["stub-backend-test"]
        # Once unregistered, lookups fail with the full name list again.
        with pytest.raises(UnknownBackendError) as err:
            get_backend("stub-backend-test")
        assert "registered backends" in str(err.value)

    def test_unknown_backend_error_names_every_backend(self):
        with pytest.raises(UnknownBackendError) as err:
            get_backend("abacus")
        message = str(err.value)
        assert message.startswith("unknown backend 'abacus'")
        for name in available_backends():
            assert name in message
        assert isinstance(err.value, LookupError)


class TestBitForBit:
    """deploy_model must match the hand-wired engine paths exactly at fp32."""

    def test_every_backend_matches_its_engine_path(self, scaled_model, queries):
        for name in available_backends():
            session = deploy_model(
                scaled_model, backend=name, precision="fp32", seed=0
            )
            if name == "cpu":
                tables = make_tables(scaled_model.tables, seed=0)
                mlp = Mlp.random(scaled_model.layer_dims, seed=0)
                expected = CpuBaselineEngine(scaled_model, tables, mlp).infer(
                    queries
                )
            else:
                expected = MicroRecEngine.build(
                    scaled_model,
                    seed=0,
                    compress_tables=(name == "fpga-compressed"),
                    precision="fp32",
                ).infer(queries)
            got = session.infer(queries)
            np.testing.assert_array_equal(got, expected, err_msg=name)

    def test_fpga_and_cpu_agree_at_fp32(self, scaled_model, queries):
        preds = {
            name: deploy_model(
                scaled_model, backend=name, precision="fp32", seed=0
            ).infer(queries)
            for name in ("fpga", "cpu")
        }
        np.testing.assert_array_equal(preds["fpga"], preds["cpu"])

    def test_sessions_match_their_reference(self, scaled_model, queries):
        for name in available_backends():
            session = deploy_model(
                scaled_model, backend=name, precision="fp32", seed=0
            )
            np.testing.assert_array_equal(
                session.infer(queries),
                session.reference().infer(queries),
                err_msg=name,
            )

    def test_deploy_model_by_name_and_max_rows(self, scaled_model, queries):
        session = deploy_model(
            "small", backend="fpga", max_rows=MAX_ROWS, precision="fp32", seed=0
        )
        direct = deploy_model(
            scaled_model, backend="fpga", precision="fp32", seed=0
        )
        np.testing.assert_array_equal(
            session.infer(queries), direct.infer(queries)
        )
        with pytest.raises(KeyError):
            deploy_model("medium")


class TestPerfEstimate:
    def test_fields_consistent_across_backends(self, scaled_model):
        estimates = {
            name: deploy_model(scaled_model, backend=name, seed=0).perf()
            for name in available_backends()
        }
        for name, est in estimates.items():
            assert est.backend == name
            assert est.latency_us > 0
            assert est.serving_latency_ms > 0
            assert est.ii_ns > 0
            assert est.throughput_items_per_s > 0
            assert est.throughput_gops > 0
            assert est.serving_batch >= 1
            assert est.usd_per_hour > 0
            assert est.bottleneck
            assert est.usd_per_million_queries > 0
            assert set(est.as_dict()) >= {
                "backend",
                "latency_us",
                "throughput_items_per_s",
                "usd_per_million_queries",
            }
        # The paper's headline relations survive normalisation.
        assert estimates["fpga"].latency_us < estimates["cpu"].latency_us
        assert (
            estimates["fpga"].throughput_items_per_s
            > estimates["cpu"].throughput_items_per_s
        )
        # Pipelined engines serve at batch 1; the CPU batches.
        assert estimates["fpga"].serving_batch == 1
        assert estimates["cpu"].serving_batch > 1

    def test_throughput_matches_ii(self, scaled_model):
        est = deploy_model(scaled_model, backend="fpga", seed=0).perf()
        assert est.throughput_items_per_s == pytest.approx(1e9 / est.ii_ns)

    def test_validation(self):
        with pytest.raises(ValueError):
            PerfEstimate(
                backend="x",
                precision="fp32",
                latency_us=0.0,
                serving_latency_ms=1.0,
                ii_ns=1.0,
                throughput_items_per_s=1.0,
                throughput_gops=1.0,
                serving_batch=1,
                usd_per_hour=1.0,
                bottleneck="mlp",
            )


class TestSessionServing:
    def test_serve_routes_per_backend(self, scaled_model):
        arrivals = np.arange(2000, dtype=np.float64) * 1e5  # 10k/s
        for name in ("fpga", "cpu"):
            session = deploy_model(scaled_model, backend=name, seed=0)
            result = session.serve(arrivals)
            assert isinstance(result, ServingResult)
            assert result.count == arrivals.size
        fpga = deploy_model(scaled_model, backend="fpga", seed=0)
        cpu = deploy_model(scaled_model, backend="cpu", seed=0)
        # Pipelined p99 stays near the single-item latency; the batched
        # engine pays assembly wait + batch execution.
        assert fpga.serve(arrivals).p99_ms < cpu.serve(arrivals).p99_ms

    def test_cpu_server_knobs(self, scaled_model):
        session = deploy_model(scaled_model, backend="cpu", seed=0)
        sim = session.server(batch_size=128, batch_timeout_ms=2.0)
        assert sim.batch_size == 128
        with pytest.raises(TypeError):
            deploy_model(scaled_model, backend="fpga", seed=0).server(
                batch_size=128
            )

    def test_fleet_sizing(self, scaled_model):
        sessions = [
            deploy_model(scaled_model, backend=name, seed=0)
            for name in ("fpga", "cpu")
        ]
        fleets = plan_fleet_for(500_000, [s.perf() for s in sessions])
        assert set(fleets) == {"fpga", "cpu"}
        assert fleets["fpga"].nodes < fleets["cpu"].nodes
        single = sessions[0].fleet(500_000)
        assert single.nodes == fleets["fpga"].nodes
        with pytest.raises(ValueError):
            plan_fleet_for(1000, [sessions[0].perf(), sessions[0].perf()])
        for qps in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="target_qps"):
                plan_fleet_for(qps, [sessions[0].perf()])

    def test_summary_keys(self, scaled_model):
        for name in available_backends():
            summary = deploy_model(scaled_model, backend=name, seed=0).summary()
            assert summary["backend"] == name
            assert {"model", "precision", "latency_us"} <= set(summary)


class TestBackendKnobs:
    def test_unknown_knob_rejected(self, scaled_model):
        for name in available_backends():
            with pytest.raises(TypeError):
                deploy_model(scaled_model, backend=name, warp_factor=9)

    def test_unknown_precision_rejected(self, scaled_model):
        for name in available_backends():
            with pytest.raises(ValueError):
                deploy_model(scaled_model, backend=name, precision="fp8")

    def test_compressed_backend_enforces_size_limit(self):
        with pytest.raises(ValueError):
            deploy_model("small", backend="fpga-compressed")


class TestCliRuntime:
    def test_infer(self, capsys):
        assert main(["infer", "small", "--max-rows", "256", "--batch", "8"]) == 0
        out = capsys.readouterr().out
        assert "backend: fpga" in out

    def test_infer_json(self, capsys):
        assert main(
            ["infer", "small", "--max-rows", "256", "--batch", "8",
             "--backend", "cpu", "--precision", "fp32", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "cpu"
        assert payload["max_abs_error_vs_fp32"] == 0.0
        assert len(payload["predictions"]) == 5

    def test_infer_unknown_backend(self, capsys):
        assert main(["infer", "small", "--backend", "tpu"]) == 2

    def test_plan_backend_and_knobs(self, capsys):
        assert main(
            ["plan", "small", "--max-candidate-rows", "50", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "fpga"
        # A 50-row candidate cutoff leaves (almost) nothing to merge.
        assert payload["merged_groups"] <= 1

    def test_plan_cpu_backend(self, capsys):
        assert main(["plan", "small", "--backend", "cpu", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "cpu"
        assert payload["serving_batch"] == 2048

    def test_fleet_backend_selection(self, capsys):
        assert main(
            ["fleet", "small", "50000", "--backend", "fpga", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"fpga"}
        assert payload["fpga"]["nodes"] >= 1

    def test_info_json(self, capsys):
        assert main(["info", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["backends"]) == set(available_backends())
        assert "small" in payload["models"]

    def test_deploy_model_reexported(self):
        assert repro.deploy_model is deploy_model


class TestDocstrings:
    """The API docstring examples must actually run (and keep running)."""

    def test_deploy_model_doctest(self):
        import doctest

        import repro.runtime.api as api

        result = doctest.testmod(api)
        assert result.attempted > 0  # the example exists ...
        assert result.failed == 0  # ... and runs clean

    def test_deploy_cluster_doctest(self):
        import doctest

        import repro.cluster.api as api

        result = doctest.testmod(api)
        assert result.attempted > 0
        assert result.failed == 0
