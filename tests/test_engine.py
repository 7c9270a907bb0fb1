"""Unit tests for the MicroRec engine: planning + functional inference.

The decisive test is functional equivalence: the engine's single stacked
gather over every table (merged by the planner or not) must produce
byte-identical features — and hence identical CTR predictions — to the
plain per-table CPU reference.
"""

import numpy as np
import pytest

from repro.core.cartesian import CartesianTable
from repro.core.engine import MicroRecEngine
from repro.core.tables import VirtualTable
from repro.fpga.accelerator import FpgaConfig
from repro.models.spec import dlrm_rmc2, production_small
from repro.models.workload import QueryGenerator


@pytest.fixture(scope="module")
def scaled_model():
    """The small production model with rows capped for materialisation."""
    return production_small().scaled(max_rows=4096)


@pytest.fixture(scope="module")
def engine(scaled_model):
    return MicroRecEngine.build(scaled_model, seed=11)


class TestBuild:
    def test_plan_merges_tables(self, engine):
        assert len(engine.plan.merge_groups) > 0

    def test_summary_keys(self, engine):
        s = engine.summary()
        for key in ("model", "precision", "latency_us", "dram_rounds"):
            assert key in s


class TestFunctionalEquivalence:
    def test_embeddings_match_reference(self, engine, scaled_model):
        """Merged-table lookups are invisible: features identical to the
        unmerged reference."""
        batch = QueryGenerator(scaled_model, seed=3).batch(64)
        ours = engine.lookup_embeddings(batch)
        ref = engine.reference_engine().embed(batch)
        np.testing.assert_array_equal(ours, ref)

    def test_merged_groups_actually_used(self, engine, scaled_model):
        """Sanity: the equivalence test must actually exercise merging."""
        merged_ids = {
            tid for g in engine.plan.merge_groups for tid in g.member_ids
        }
        assert len(merged_ids) >= 4

    def test_ctr_predictions_match_fp32_reference(self, scaled_model):
        eng = MicroRecEngine.build(
            scaled_model, seed=5, fpga_config=FpgaConfig(precision="fixed32")
        )
        batch = QueryGenerator(scaled_model, seed=7).batch(32)
        ours = eng.infer(batch)
        ref = eng.reference_engine().infer(batch)
        # fixed32 (Q8.24) is near-lossless for O(1) activations.
        np.testing.assert_allclose(ours, ref, atol=2e-4)

    def test_fixed16_within_quantisation_error(self, scaled_model):
        eng = MicroRecEngine.build(
            scaled_model, seed=5, fpga_config=FpgaConfig(precision="fixed16")
        )
        batch = QueryGenerator(scaled_model, seed=7).batch(32)
        ours = eng.infer(batch)
        ref = eng.reference_engine().infer(batch)
        assert np.abs(ours - ref).max() < 0.05
        # Ranking is essentially preserved (the paper serves CTR *ranking*).
        assert np.corrcoef(ours, ref)[0, 1] > 0.99

    def test_deterministic_across_builds(self, scaled_model):
        a = MicroRecEngine.build(scaled_model, seed=9)
        b = MicroRecEngine.build(scaled_model, seed=9)
        batch = QueryGenerator(scaled_model, seed=1).batch(8)
        np.testing.assert_array_equal(a.infer(batch), b.infer(batch))

    def test_materialized_and_virtual_agree(self, scaled_model):
        virt = MicroRecEngine.build(scaled_model, seed=4)
        mat = MicroRecEngine.build(
            scaled_model, seed=4, materialize_below_bytes=1 << 30
        )
        batch = QueryGenerator(scaled_model, seed=2).batch(16)
        np.testing.assert_array_equal(
            virt.lookup_embeddings(batch), mat.lookup_embeddings(batch)
        )

    def test_multi_lookup_tables_and_dense_features(self):
        """Several slots per table, plus dense features ahead of them."""
        model = dlrm_rmc2(num_tables=3, dim=8, lookups_per_table=4, rows=1000)
        eng = MicroRecEngine.build(model, seed=6)
        batch = QueryGenerator(model, seed=8).batch(24)
        np.testing.assert_array_equal(
            eng.lookup_embeddings(batch), eng.reference_engine().embed(batch)
        )

    def test_one_gather_per_call(self, engine, scaled_model, monkeypatch):
        """Every table is read by one stacked lookup, none on its own."""
        calls = []

        def counted(cls):
            original = cls.lookup

            def lookup(self, indices):
                calls.append(cls.__name__)
                return original(self, indices)

            monkeypatch.setattr(cls, "lookup", lookup)

        counted(VirtualTable)
        counted(CartesianTable)
        engine.infer(QueryGenerator(scaled_model, seed=4).batch(16))
        assert calls == ["VirtualTable"]


class TestTimedEstimates:
    def test_performance_report(self, engine):
        perf = engine.performance()
        assert perf.single_item_latency_us > 0
        assert perf.throughput_items_per_s > 0

    def test_resources_report(self, engine):
        assert engine.resources().fits()

    def test_scaling_rows_does_not_change_pipeline(self, scaled_model):
        """Row-capping changes storage, not the MLP/feature shape, so the
        compute side of the pipeline is identical to the full model."""
        full = MicroRecEngine.build(production_small())
        scaled = MicroRecEngine.build(scaled_model)
        f = full.performance()
        s = scaled.performance()
        assert f.ii_ns == pytest.approx(s.ii_ns)
