"""Unit tests for the CPU baseline: cost model calibration and the
functional reference engine."""

import numpy as np
import pytest

from repro.core.tables import make_tables
from repro.cpu.baseline import CpuBaselineEngine
from repro.cpu.costmodel import (
    CpuCostModel,
    CpuCostParams,
    facebook_rmc2_embedding_us_per_item,
)
from repro.cpu.server import CpuServerSpec
from repro.experiments import paper_data
from repro.models.mlp import Mlp
from repro.models.spec import dlrm_rmc2, production_large, production_small
from repro.models.workload import QueryGenerator


class TestCpuServerSpec:
    def test_peak_gflops_derivation(self):
        # 8 cores x 2 FMA x 8 lanes x 2 ops x 2.3 GHz = 588.8 GFLOP/s
        assert CpuServerSpec().peak_gflops == pytest.approx(588.8)


class TestCpuCostModelShape:
    @pytest.fixture(params=["small", "large"])
    def setup(self, request):
        model = {"small": production_small, "large": production_large}[
            request.param
        ]()
        return request.param, CpuCostModel(model)

    def test_latency_monotonic_in_batch(self, setup):
        _, cm = setup
        lats = [cm.end_to_end_latency_ms(b) for b in paper_data.CPU_BATCHES]
        assert lats == sorted(lats)

    def test_throughput_improves_with_batch(self, setup):
        _, cm = setup
        thr = [cm.throughput_items_per_s(b) for b in paper_data.CPU_BATCHES]
        assert thr == sorted(thr)

    def test_embedding_dominates_small_batches(self, setup):
        """Figure 3: the embedding layer is the bottleneck at small B."""
        _, cm = setup
        assert cm.embedding_fraction(1) > 0.6
        assert cm.embedding_fraction(64) > 0.5

    def test_batch_validation(self, setup):
        _, cm = setup
        with pytest.raises(ValueError):
            cm.embedding_latency_ms(0)
        with pytest.raises(ValueError):
            cm.mlp_latency_ms(-1)


class TestCpuCostModelCalibration:
    """Every published CPU latency is reproduced within +-25%."""

    @pytest.mark.parametrize("name", ["small", "large"])
    def test_end_to_end_against_table2(self, name):
        model = {"small": production_small, "large": production_large}[name]()
        cm = CpuCostModel(model)
        for batch, expected in paper_data.TABLE2[name]["cpu_latency_ms"].items():
            ours = cm.end_to_end_latency_ms(batch)
            assert ours == pytest.approx(expected, rel=0.25), f"B={batch}"

    @pytest.mark.parametrize("name", ["small", "large"])
    def test_embedding_against_table4(self, name):
        model = {"small": production_small, "large": production_large}[name]()
        cm = CpuCostModel(model)
        for batch, expected in paper_data.TABLE4[name]["cpu_latency_ms"].items():
            ours = cm.embedding_latency_ms(batch)
            assert ours == pytest.approx(expected, rel=0.25), f"B={batch}"

    def test_gemm_efficiency_curve(self):
        p = CpuCostParams()
        assert p.gemm_efficiency(1) < 0.01
        assert p.gemm_efficiency(2048) > 0.4
        assert p.gemm_efficiency(2048) <= p.gemm_eff_max

    def test_facebook_baseline_magnitude(self):
        """Table 5 implies ~24 us/item across configurations."""
        for tables in (8, 12):
            us = facebook_rmc2_embedding_us_per_item(tables)
            assert 20.0 < us < 32.0


class TestCpuBaselineEngine:
    @pytest.fixture
    def engine(self):
        model = dlrm_rmc2(num_tables=3, dim=8, rows=500)
        tables = make_tables(model.tables, seed=0)
        mlp = Mlp.random(model.layer_dims, seed=0)
        return CpuBaselineEngine(model, tables, mlp), model

    def test_embed_shape_and_layout(self, engine):
        eng, model = engine
        batch = QueryGenerator(model, seed=0).batch(10)
        feats = eng.embed(batch)
        assert feats.shape == (10, model.feature_len)
        # Dense features occupy the leading columns.
        np.testing.assert_array_equal(feats[:, : model.dense_dim], batch.dense)

    def test_embed_matches_direct_lookup(self, engine):
        eng, model = engine
        batch = QueryGenerator(model, seed=1).batch(4)
        feats = eng.embed(batch)
        t0 = model.tables[0]
        direct = eng.tables[t0.table_id].lookup(
            batch.indices[t0.table_id].reshape(-1)
        ).reshape(4, -1)
        got = feats[:, model.dense_dim : model.dense_dim + t0.dim * 4]
        np.testing.assert_array_equal(got, direct)

    def test_infer_returns_probabilities(self, engine):
        eng, model = engine
        out = eng.infer(QueryGenerator(model, seed=2).batch(32))
        assert out.shape == (32,)
        assert ((out > 0) & (out < 1)).all()

    def test_missing_table_rejected(self):
        model = dlrm_rmc2(num_tables=3, dim=8, rows=100)
        tables = make_tables(model.tables[:-1], seed=0)
        with pytest.raises(ValueError):
            CpuBaselineEngine(model, tables, Mlp.random(model.layer_dims))

    def test_mlp_width_mismatch_rejected(self):
        model = dlrm_rmc2(num_tables=3, dim=8, rows=100)
        tables = make_tables(model.tables, seed=0)
        with pytest.raises(ValueError):
            CpuBaselineEngine(model, tables, Mlp.random([(7, 1)]))
