"""Tests for the promoted ``gpu`` and ``nmp`` runtime backends.

The paper's headline claims are comparative (FPGA vs CPU vs GPU vs NMP
serving stacks); these tests pin the promotion contract: both baselines
are first-class registered backends, their normalised ``PerfEstimate``s
match the raw cost models in ``repro.baselines`` bit-for-bit, their
functional path agrees with the CPU reference exactly, and fleet planning
orders the five backends by cost per QPS the way the paper's comparisons
imply.
"""

import json

import numpy as np
import pytest

from repro import (
    GpuSession,
    NmpSession,
    QueryGenerator,
    available_backends,
    deploy_model,
)
from repro.baselines.gpu import GpuCostModel, GpuSpec
from repro.baselines.nmp import NmpCostModel, NmpSpec
from repro.cli import main
from repro.deploy.capacity import ACCELERATOR_RATES, plan_fleet_for
from repro.models.spec import production_small
from repro.runtime.backends import (
    DEFAULT_CPU_SERVING_BATCH,
    DEFAULT_GPU_SERVING_BATCH,
)
from repro.serving.queueing import (
    BatchedServerSim,
    PipelineServerSim,
    ServingResult,
)

MAX_ROWS = 512

ALL_BACKENDS = ("fpga", "fpga-compressed", "cpu", "gpu", "nmp")


@pytest.fixture(scope="module")
def scaled_model():
    return production_small().scaled(max_rows=MAX_ROWS)


@pytest.fixture(scope="module")
def queries(scaled_model):
    return QueryGenerator(scaled_model, seed=0).batch(64)


@pytest.fixture(scope="module")
def sessions(scaled_model):
    return {
        name: deploy_model(scaled_model, backend=name, seed=0)
        for name in ALL_BACKENDS
    }


class TestRegistry:
    def test_gpu_and_nmp_registered(self):
        assert set(ALL_BACKENDS) <= set(available_backends())

    def test_session_types(self, sessions):
        assert isinstance(sessions["gpu"], GpuSession)
        assert isinstance(sessions["nmp"], NmpSession)


class TestPerfMatchesRawCostModels:
    """The normalised estimates must be the raw baseline numbers, untouched."""

    def test_gpu_bit_for_bit(self, scaled_model, sessions):
        est = sessions["gpu"].perf()
        raw = GpuCostModel(scaled_model)
        batch = est.serving_batch
        assert batch == DEFAULT_GPU_SERVING_BATCH
        assert est.latency_us == raw.end_to_end_latency_ms(1) * 1e3
        assert est.serving_latency_ms == raw.end_to_end_latency_ms(batch)
        assert est.throughput_items_per_s == raw.throughput_items_per_s(batch)
        assert est.throughput_gops == raw.throughput_gops(batch)
        assert est.ii_ns == 1e9 / raw.throughput_items_per_s(batch)
        assert est.bottleneck == raw.bottleneck(batch)
        assert est.usd_per_hour == ACCELERATOR_RATES["gpu"]

    def test_nmp_bit_for_bit(self, scaled_model, sessions):
        est = sessions["nmp"].perf()
        raw = NmpCostModel(scaled_model)
        batch = est.serving_batch
        assert batch == DEFAULT_CPU_SERVING_BATCH
        assert est.latency_us == raw.end_to_end_latency_ms(1) * 1e3
        assert est.serving_latency_ms == raw.end_to_end_latency_ms(batch)
        assert est.throughput_items_per_s == raw.throughput_items_per_s(batch)
        assert est.throughput_gops == raw.throughput_gops(batch)
        assert est.usd_per_hour == ACCELERATOR_RATES["nmp"]

    def test_batch_latency_curves_are_the_raw_curves(
        self, scaled_model, sessions
    ):
        gpu_raw = GpuCostModel(scaled_model)
        nmp_raw = NmpCostModel(scaled_model)
        for batch in (1, 64, 2048):
            assert sessions["gpu"].batch_latency_ms(batch) == (
                gpu_raw.end_to_end_latency_ms(batch)
            )
            assert sessions["nmp"].batch_latency_ms(batch) == (
                nmp_raw.end_to_end_latency_ms(batch)
            )

    def test_gpu_spec_knob_reaches_the_cost_model(self, scaled_model):
        stock = deploy_model(scaled_model, backend="gpu", seed=0).perf()
        fast_bus = deploy_model(
            scaled_model,
            backend="gpu",
            seed=0,
            gpu=GpuSpec(pcie_gb_s=24.0),
        ).perf()
        assert fast_bus.serving_latency_ms < stock.serving_latency_ms

    def test_nmp_spec_knob_reaches_the_cost_model(self, scaled_model):
        stock = deploy_model(scaled_model, backend="nmp", seed=0).perf()
        faster = deploy_model(
            scaled_model,
            backend="nmp",
            seed=0,
            nmp=NmpSpec(lookup_speedup=8.0),
        ).perf()
        assert faster.serving_latency_ms < stock.serving_latency_ms


class TestFunctionalPath:
    def test_fp32_matches_cpu_reference_bit_for_bit(self, scaled_model, queries):
        preds = {
            name: deploy_model(
                scaled_model, backend=name, precision="fp32", seed=0
            ).infer(queries)
            for name in ("cpu", "gpu", "nmp")
        }
        np.testing.assert_array_equal(preds["gpu"], preds["cpu"])
        np.testing.assert_array_equal(preds["nmp"], preds["cpu"])

    def test_sessions_match_their_reference(self, sessions, queries):
        for name in ("gpu", "nmp"):
            session = sessions[name]
            np.testing.assert_array_equal(
                session.infer(queries),
                session.reference().infer(queries),
                err_msg=name,
            )

    def test_quantised_path_matches_cpu_quantised(self, scaled_model, queries):
        fixed = {
            name: deploy_model(
                scaled_model, backend=name, precision="fixed16", seed=0
            ).infer(queries)
            for name in ("cpu", "gpu")
        }
        np.testing.assert_array_equal(fixed["gpu"], fixed["cpu"])


class TestServing:
    def test_gpu_serves_batched(self, sessions):
        server = sessions["gpu"].server()
        assert isinstance(server, BatchedServerSim)
        assert server.batch_size == DEFAULT_GPU_SERVING_BATCH
        small = sessions["gpu"].server(batch_size=128, batch_timeout_ms=2.0)
        assert small.batch_size == 128

    def test_nmp_serves_pipelined(self, sessions):
        server = sessions["nmp"].server()
        assert isinstance(server, PipelineServerSim)
        with pytest.raises(TypeError):
            sessions["nmp"].server(batch_size=128)
        # fpga and nmp share the pipelined-serving contract.
        perf = sessions["nmp"].perf()
        assert server.ii_ns == perf.ii_ns
        assert server.latency_ns == perf.latency_us * 1e3

    def test_serve_returns_results(self, sessions):
        arrivals = np.arange(1000, dtype=np.float64) * 1e5  # 10k/s
        for name in ("gpu", "nmp"):
            result = sessions[name].serve(arrivals)
            assert isinstance(result, ServingResult)
            assert result.count == arrivals.size

    def test_nmp_latency_beats_cpu_under_load(self, sessions):
        arrivals = np.arange(1000, dtype=np.float64) * 1e5
        assert (
            sessions["nmp"].serve(arrivals).p99_ms
            < sessions["cpu"].serve(arrivals).p99_ms
        )


class TestPaperOrdering:
    """The cross-backend relations of the paper's comparison sections."""

    def test_fleet_cost_per_qps_ordering(self, sessions):
        fleets = plan_fleet_for(
            1_000_000, [sessions[name].perf() for name in ALL_BACKENDS]
        )
        assert set(fleets) == set(ALL_BACKENDS)
        cost = {
            name: fleet.usd_per_million_queries
            for name, fleet in fleets.items()
        }
        # MicroRec is the cheapest engine per query; the GPU needs its huge
        # batches to beat the CPU; NMP undercuts the CPU but not the GPU's
        # saturated GEMMs; the plain CPU fleet is the most expensive.
        assert cost["fpga"] < cost["gpu"] < cost["nmp"] < cost["cpu"]
        assert cost["fpga-compressed"] < cost["gpu"]

    def test_gpu_suffers_high_latency(self, sessions):
        # Gupta et al. 2020a: single-query latency is worse than the CPU's,
        # and the huge serving batch keeps the operating latency SLA-hostile.
        gpu, cpu, fpga = (
            sessions["gpu"].perf(),
            sessions["cpu"].perf(),
            sessions["fpga"].perf(),
        )
        assert gpu.latency_us > cpu.latency_us > fpga.latency_us
        assert gpu.serving_latency_ms > 10.0

    def test_nmp_accelerates_embedding_only(self, scaled_model, sessions):
        # NMP beats the CPU at every batch, but by less than the raw
        # lookup speedup — framework overhead and the MLP are untouched.
        nmp = NmpCostModel(scaled_model)
        cpu_session = sessions["cpu"]
        for batch in (1, 512, 2048):
            cpu_ms = cpu_session.batch_latency_ms(batch)
            nmp_ms = nmp.end_to_end_latency_ms(batch)
            assert nmp_ms < cpu_ms
            assert cpu_ms / nmp_ms < nmp.nmp.lookup_speedup

    def test_node_rate_ordering(self):
        rates = ACCELERATOR_RATES
        assert rates["cpu"] < rates["nmp"] < rates["gpu"]


class TestKnobs:
    def test_unknown_knob_rejected(self, scaled_model):
        for name in ("gpu", "nmp"):
            with pytest.raises(TypeError):
                deploy_model(scaled_model, backend=name, warp_factor=9)

    def test_unknown_precision_rejected(self, scaled_model):
        for name in ("gpu", "nmp"):
            with pytest.raises(ValueError):
                deploy_model(scaled_model, backend=name, precision="fp8")

    def test_shared_knobs_accepted_and_ignored(self, scaled_model):
        from repro.core.planner import PlannerConfig

        session = deploy_model(
            scaled_model,
            backend="gpu",
            seed=0,
            planner_config=PlannerConfig(),
        )
        assert session.backend == "gpu"


class TestCli:
    def test_infer_backend_nmp_json(self, capsys):
        assert main(
            ["infer", "small", "--max-rows", "256", "--batch", "8",
             "--backend", "nmp", "--precision", "fp32", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "nmp"
        assert payload["max_abs_error_vs_fp32"] == 0.0

    def test_fleet_all_five_backends(self, capsys):
        argv = ["fleet", "small", "50000", "--max-rows", "256", "--json"]
        for name in ALL_BACKENDS:
            argv += ["--backend", name]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == set(ALL_BACKENDS)
        assert payload["gpu"]["nodes"] >= 1
