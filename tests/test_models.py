"""Unit tests for model specs, distributions, and workload generation."""

import numpy as np
import pytest

from repro.core.tables import TableSpec
from repro.models.distributions import log_spaced_rows, zipf_indices
from repro.models.spec import (
    ModelSpec,
    dlrm_rmc2,
    production_large,
    production_small,
)
from repro.models.workload import QueryGenerator


class TestDistributions:
    def test_log_spaced_endpoints(self):
        rows = log_spaced_rows(5, 100, 10_000)
        assert rows[0] == 100
        assert rows[-1] == 10_000
        assert rows == sorted(rows)

    def test_log_spaced_single(self):
        assert log_spaced_rows(1, 7, 100) == [7]

    def test_log_spaced_validation(self):
        with pytest.raises(ValueError):
            log_spaced_rows(0, 1, 10)
        with pytest.raises(ValueError):
            log_spaced_rows(3, 10, 5)

    def test_zipf_in_range(self, rng):
        idx = zipf_indices(rng, rows=1000, size=5000, alpha=1.05)
        assert idx.min() >= 0
        assert idx.max() < 1000

    def test_zipf_skews_to_popular(self, rng):
        idx = zipf_indices(rng, rows=10_000, size=50_000, alpha=1.05)
        head = (idx < 100).mean()
        assert head > 0.3  # top 1% of rows gets >30% of traffic

    def test_zipf_alpha_zero_is_uniform(self, rng):
        idx = zipf_indices(rng, rows=1000, size=100_000, alpha=0.0)
        head = (idx < 100).mean()
        assert head == pytest.approx(0.1, abs=0.01)

    def test_zipf_rejects_bad_rows(self, rng):
        with pytest.raises(ValueError):
            zipf_indices(rng, rows=0, size=10)


class TestModelSpec:
    def test_feature_len_includes_dense(self):
        model = ModelSpec(
            name="m",
            tables=(TableSpec(0, rows=10, dim=4),),
            hidden=(8,),
            dense_dim=13,
        )
        assert model.feature_len == 17

    def test_multi_lookup_widens_features(self):
        model = ModelSpec(
            name="m",
            tables=(TableSpec(0, rows=10, dim=4, lookups_per_inference=4),),
            hidden=(8,),
        )
        assert model.embedding_dim_total == 16
        assert model.lookups_per_inference == 4

    def test_layer_dims_end_in_scalar_head(self):
        model = ModelSpec(
            name="m", tables=(TableSpec(0, rows=10, dim=4),), hidden=(8, 2)
        )
        assert model.layer_dims == [(4, 8), (8, 2), (2, 1)]

    def test_aggregates_cached_and_layer_dims_fresh(self):
        model = production_small()
        tables = model.tables
        assert model.lookups_per_inference == sum(
            t.lookups_per_inference for t in tables
        )
        assert model.embedding_dim_total == sum(
            t.dim * t.lookups_per_inference for t in tables
        )
        assert model.total_embedding_bytes == sum(t.nbytes for t in tables)
        assert model.ops_per_inference == sum(
            2 * din * dout for din, dout in model.layer_dims
        )
        cached = {
            "lookups_per_inference", "embedding_dim_total",
            "total_embedding_bytes", "ops_per_inference",
        }
        assert cached <= set(vars(model))
        # Cached values are not fields: equality and hashing ignore them.
        assert model == production_small()
        assert hash(model) == hash(production_small())
        dims = model.layer_dims
        dims.clear()
        assert model.layer_dims == [(352, 1024), (1024, 512), (512, 256), (256, 1)]

    def test_duplicate_table_ids_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(
                name="m",
                tables=(TableSpec(0, rows=1, dim=1), TableSpec(0, rows=2, dim=1)),
            )

    def test_scaled_caps_rows_only(self):
        model = production_small().scaled(max_rows=4096)
        orig = production_small()
        assert model.num_tables == orig.num_tables
        assert model.feature_len == orig.feature_len
        assert max(t.rows for t in model.tables) == 4096
        # Small tables unchanged.
        small = [t for t in orig.tables if t.rows <= 4096]
        for t in small:
            assert model.specs_by_id()[t.table_id].rows == t.rows

    def test_scaled_validation(self):
        with pytest.raises(ValueError):
            production_small().scaled(max_rows=0)


class TestProductionModels:
    """The synthetic inventories must reproduce the paper's Table 1."""

    def test_small_aggregates(self):
        m = production_small()
        assert m.num_tables == 47
        assert m.feature_len == 352
        assert m.hidden == (1024, 512, 256)
        assert m.total_embedding_bytes == pytest.approx(1.3e9, rel=0.05)
        # Paper GOP accounting: ~2.03 MOP per item.
        assert m.ops_per_inference == pytest.approx(2.03e6, rel=0.01)

    def test_large_aggregates(self):
        m = production_large()
        assert m.num_tables == 98
        assert m.feature_len == 876
        assert m.total_embedding_bytes == pytest.approx(15.1e9, rel=0.02)
        assert m.ops_per_inference == pytest.approx(3.105e6, rel=0.01)

    @pytest.mark.parametrize("factory", [production_small, production_large])
    def test_wild_size_variance(self, factory):
        """Section 2.2: tables range from ~100 rows to tens of millions."""
        rows = [t.rows for t in factory().tables]
        assert min(rows) <= 200
        assert max(rows) >= 1_000_000
        assert max(rows) / min(rows) > 1e4

    @pytest.mark.parametrize("factory", [production_small, production_large])
    def test_single_lookup_per_table(self, factory):
        """Footnote 1: each production table is looked up exactly once."""
        assert all(t.lookups_per_inference == 1 for t in factory().tables)

    def test_deterministic(self):
        assert production_small() == production_small()


class TestDlrmRmc2:
    def test_paper_assumptions(self):
        m = dlrm_rmc2(num_tables=8, dim=32)
        assert m.num_tables == 8
        assert all(t.lookups_per_inference == 4 for t in m.tables)
        # Every table fits one HBM bank (256 MB).
        assert all(t.nbytes <= 256 * 2**20 for t in m.tables)

    def test_lookup_counts(self):
        assert dlrm_rmc2(num_tables=8).lookups_per_inference == 32
        assert dlrm_rmc2(num_tables=12).lookups_per_inference == 48

    def test_validation(self):
        with pytest.raises(ValueError):
            dlrm_rmc2(num_tables=0)


class TestQueryGenerator:
    def test_batch_shapes(self):
        model = dlrm_rmc2(num_tables=3, dim=8, rows=100)
        gen = QueryGenerator(model, seed=0)
        batch = gen.batch(16)
        assert batch.batch_size == 16
        assert len(batch) == 16
        assert batch.dense.shape == (16, model.dense_dim)
        for t in model.tables:
            assert batch.indices[t.table_id].shape == (16, 4)

    def test_indices_within_table_bounds(self):
        model = production_small().scaled(max_rows=512)
        gen = QueryGenerator(model, seed=1)
        batch = gen.batch(64)
        for t in model.tables:
            idx = batch.indices[t.table_id]
            assert idx.min() >= 0
            assert idx.max() < t.rows

    def test_deterministic_under_seed(self):
        model = dlrm_rmc2(num_tables=2, rows=1000)
        a = QueryGenerator(model, seed=5).batch(8)
        b = QueryGenerator(model, seed=5).batch(8)
        for tid in a.indices:
            np.testing.assert_array_equal(a.indices[tid], b.indices[tid])
        np.testing.assert_array_equal(a.dense, b.dense)

    def test_reset_replays_stream(self):
        model = dlrm_rmc2(num_tables=2, rows=1000)
        gen = QueryGenerator(model, seed=5)
        first = gen.batch(8)
        gen.reset()
        replay = gen.batch(8)
        np.testing.assert_array_equal(first.indices[0], replay.indices[0])

    def test_batches_iterator(self):
        model = dlrm_rmc2(num_tables=2, rows=100)
        gen = QueryGenerator(model, seed=0)
        batches = list(gen.batches(4, 3))
        assert len(batches) == 3
        assert all(b.batch_size == 4 for b in batches)

    def test_batch_size_validation(self):
        gen = QueryGenerator(dlrm_rmc2(num_tables=2), seed=0)
        with pytest.raises(ValueError):
            gen.batch(0)
