"""Unit tests for Cartesian-product table merging — the paper's core data
structure.  The central invariant: a merged table is *functionally
invisible* — looking up the product returns exactly the concatenation of
the member tables' vectors."""

import numpy as np
import pytest

from repro.core.cartesian import (
    CartesianTable,
    MergeGroup,
    product_spec,
)
from repro.core.tables import TableSpec


def _specs_by_id(specs):
    return {s.table_id: s for s in specs}


class TestMergeGroup:
    def test_singleton_is_not_merged(self):
        assert not MergeGroup((3,)).is_merged
        assert MergeGroup((3, 4)).is_merged

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MergeGroup(())

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            MergeGroup((1, 1))


class TestProductSpec:
    def test_rows_multiply_dims_add(self, small_specs):
        specs = _specs_by_id(small_specs)
        spec = product_spec(MergeGroup((0, 2)), specs)
        assert spec.rows == 16 * 64
        assert spec.dim == 4 + 8

    def test_three_way_product(self, small_specs):
        specs = _specs_by_id(small_specs)
        spec = product_spec(MergeGroup((0, 1, 2)), specs)
        assert spec.rows == 16 * 32 * 64
        assert spec.dim == 4 + 4 + 8

    def test_figure5_example(self):
        """Figure 5: two 2-entry tables -> one 4-entry product."""
        specs = _specs_by_id(
            [TableSpec(0, rows=2, dim=3), TableSpec(1, rows=2, dim=2)]
        )
        spec = product_spec(MergeGroup((0, 1)), specs)
        assert spec.rows == 4
        assert spec.dim == 5

    def test_mixed_dtype_rejected(self):
        specs = _specs_by_id(
            [TableSpec(0, rows=2, dim=2), TableSpec(1, rows=2, dim=2, dtype_bytes=2)]
        )
        with pytest.raises(ValueError):
            product_spec(MergeGroup((0, 1)), specs)

    def test_mixed_lookup_counts_rejected(self):
        specs = _specs_by_id(
            [
                TableSpec(0, rows=2, dim=2),
                TableSpec(1, rows=2, dim=2, lookups_per_inference=4),
            ]
        )
        with pytest.raises(ValueError):
            product_spec(MergeGroup((0, 1)), specs)

    def test_storage_overhead(self):
        """Section 3.3: product of two small tables is tens of kilobytes."""
        specs = _specs_by_id(
            [TableSpec(0, rows=100, dim=4), TableSpec(1, rows=100, dim=4)]
        )
        product_bytes = product_spec(MergeGroup((0, 1)), specs).nbytes
        members_bytes = specs[0].nbytes + specs[1].nbytes
        assert product_bytes == 100 * 100 * 8 * 4  # 320 KB
        assert members_bytes == 2 * 100 * 4 * 4


class TestCartesianTable:
    @pytest.fixture
    def pair(self, small_tables, small_specs):
        group = MergeGroup((0, 2))
        return CartesianTable(group, [small_tables[0], small_tables[2]])

    def test_member_order_enforced(self, small_tables):
        with pytest.raises(ValueError):
            CartesianTable(MergeGroup((0, 2)), [small_tables[2], small_tables[0]])

    def test_merged_index_row_major(self, pair):
        # Row-major: index = i * rows_B + j (Figure 5 layout).
        rows_b = pair.members[1].spec.rows
        assert pair.merged_index(np.array([3, 5])) == 3 * rows_b + 5

    def test_index_round_trip(self, pair, rng):
        idx = np.stack(
            [rng.integers(0, m.spec.rows, size=50) for m in pair.members], axis=1
        )
        merged = pair.merged_index(idx)
        np.testing.assert_array_equal(pair.split_index(merged), idx)

    def test_merged_index_bounds(self, pair):
        with pytest.raises(IndexError):
            pair.merged_index(np.array([16, 0]))  # member 0 has 16 rows
        with pytest.raises(IndexError):
            pair.split_index(np.array([pair.spec.rows]))

    def test_lookup_equals_member_concat(self, pair, rng):
        """One merged access retrieves both vectors (Figure 5)."""
        idx = np.stack(
            [rng.integers(0, m.spec.rows, size=20) for m in pair.members], axis=1
        )
        merged_vecs = pair.lookup(pair.merged_index(idx))
        expected = np.concatenate(
            [m.lookup(idx[:, k]) for k, m in enumerate(pair.members)], axis=1
        )
        np.testing.assert_array_equal(merged_vecs, expected)

    def test_materialize_matches_functional(self, pair):
        mat = pair.materialize()
        all_rows = np.arange(pair.spec.rows)
        np.testing.assert_array_equal(mat.lookup(all_rows), pair.lookup(all_rows))

    def test_three_way_merge_functional(self, small_tables, rng):
        group = MergeGroup((0, 1, 2))
        members = [small_tables[i] for i in (0, 1, 2)]
        ct = CartesianTable(group, members)
        idx = np.stack(
            [rng.integers(0, m.spec.rows, size=10) for m in members], axis=1
        )
        expected = np.concatenate(
            [m.lookup(idx[:, k]) for k, m in enumerate(members)], axis=1
        )
        np.testing.assert_array_equal(ct.lookup_members(idx), expected)

    def test_single_lookup_convenience(self, pair):
        single = pair.lookup_members(np.array([3, 7]))
        assert single.shape == (pair.spec.dim,)

