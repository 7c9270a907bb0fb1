"""Unit tests for embedding table specs and storage backends."""

import numpy as np
import pytest

from repro.core.tables import (
    MaterializedTable,
    TableSpec,
    VirtualTable,
    make_tables,
)

_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """splitmix64 on Python integers: an independent oracle."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _virtual_cell(seed: int, spec: TableSpec, row: int, col: int) -> float:
    """``VirtualTable`` value of one cell, computed one cell at a time."""
    stream = ((seed << 32) & _MASK64) ^ _mix64(spec.table_id)
    key = (row * spec.dim + col + stream) & _MASK64
    return (_mix64(key) >> 40) / 2**24 * 2.0 - 1.0


class TestTableSpec:
    def test_byte_accounting(self):
        spec = TableSpec(0, rows=100, dim=4)
        assert spec.nbytes == 100 * 4 * 4
        assert spec.vector_bytes == 16

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rows": 0, "dim": 4},
            {"rows": 4, "dim": 0},
            {"rows": 4, "dim": 4, "dtype_bytes": 0},
            {"rows": 4, "dim": 4, "lookups_per_inference": 0},
        ],
    )
    def test_invalid_spec_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TableSpec(0, **kwargs)

    def test_size_key_orders_smallest_first(self):
        small = TableSpec(5, rows=10, dim=4)
        big = TableSpec(1, rows=1000, dim=4)
        assert min([big, small], key=lambda s: s.size_key) is small


class TestMaterializedTable:
    def test_lookup_gathers_rows(self, rng):
        values = rng.standard_normal((8, 4)).astype(np.float32)
        table = MaterializedTable(TableSpec(0, rows=8, dim=4), values)
        idx = np.array([3, 0, 3])
        np.testing.assert_array_equal(table.lookup(idx), values[idx])

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            MaterializedTable(
                TableSpec(0, rows=8, dim=4),
                rng.standard_normal((8, 5)).astype(np.float32),
            )

    def test_out_of_range_index(self, rng):
        table = MaterializedTable(
            TableSpec(0, rows=8, dim=4),
            rng.standard_normal((8, 4)).astype(np.float32),
        )
        with pytest.raises(IndexError):
            table.lookup(np.array([8]))
        with pytest.raises(IndexError):
            table.lookup(np.array([-1]))

    def test_non_1d_indices_rejected(self, rng):
        table = MaterializedTable(
            TableSpec(0, rows=8, dim=4),
            rng.standard_normal((8, 4)).astype(np.float32),
        )
        with pytest.raises(ValueError):
            table.lookup(np.zeros((2, 2), dtype=np.int64))


class TestVirtualTable:
    def test_deterministic_across_instances(self):
        spec = TableSpec(3, rows=1000, dim=8)
        a = VirtualTable(spec, seed=42)
        b = VirtualTable(spec, seed=42)
        idx = np.array([0, 1, 999, 17])
        np.testing.assert_array_equal(a.lookup(idx), b.lookup(idx))

    def test_seed_changes_values(self):
        spec = TableSpec(3, rows=1000, dim=8)
        a = VirtualTable(spec, seed=1).lookup(np.arange(10))
        b = VirtualTable(spec, seed=2).lookup(np.arange(10))
        assert not np.array_equal(a, b)

    def test_table_id_decorrelates(self):
        a = VirtualTable(TableSpec(0, rows=100, dim=4), seed=0)
        b = VirtualTable(TableSpec(1, rows=100, dim=4), seed=0)
        assert not np.array_equal(a.lookup(np.arange(10)), b.lookup(np.arange(10)))

    def test_values_in_unit_range(self):
        table = VirtualTable(TableSpec(0, rows=10_000, dim=16), seed=0)
        vals = table.lookup(np.arange(10_000))
        assert vals.dtype == np.float32
        assert vals.min() >= -1.0
        assert vals.max() < 1.0
        # Roughly centred (uniform in [-1, 1)).
        assert abs(float(vals.mean())) < 0.02

    def test_huge_table_costs_nothing_until_lookup(self):
        """The large production model's 42M-row tables stay virtual."""
        spec = TableSpec(0, rows=42_000_000, dim=23)
        table = VirtualTable(spec, seed=0)
        out = table.lookup(np.array([0, 41_999_999]))
        assert out.shape == (2, 23)

    def test_materialize_matches_virtual(self):
        spec = TableSpec(7, rows=64, dim=4)
        virt = VirtualTable(spec, seed=9)
        mat = virt.materialize()
        idx = np.array([0, 5, 63, 31])
        np.testing.assert_array_equal(mat.lookup(idx), virt.lookup(idx))

    def test_out_of_range_index(self):
        table = VirtualTable(TableSpec(0, rows=8, dim=4))
        with pytest.raises(IndexError):
            table.lookup(np.array([8]))

    def test_matches_cell_by_cell_oracle(self):
        """The vectorised hash is splitmix64 of ``(seed, id, row, col)``."""
        spec = TableSpec(3, rows=42_000_000, dim=5)
        rows = np.array([0, 1, 12_345_678, 41_999_999])
        got = VirtualTable(spec, seed=42).lookup(rows)
        want = [
            [_virtual_cell(42, spec, int(r), c) for c in range(spec.dim)]
            for r in rows
        ]
        np.testing.assert_array_equal(got, np.array(want, dtype=np.float32))

    def test_values_pinned(self):
        """Table contents are reproduction outputs: they must not drift."""
        table = VirtualTable(TableSpec(3, rows=42_000_000, dim=4), seed=42)
        got = table.lookup(np.array([0, 41_999_999]))
        pinned = [
            "0x1.ff2cp-4", "0x1.97febp-1", "-0x1.c0af88p-1", "0x1.286f3p-2",
            "0x1.bcc1bp-1", "0x1.b9fce4p-1", "0x1.805854p-1", "-0x1.99ac9p-1",
        ]
        want = np.array([float.fromhex(v) for v in pinned], np.float32)
        np.testing.assert_array_equal(got.ravel(), want)


def _row_oracle(tables, indices):
    """Each slot looked up through its own table, concatenated."""
    parts, slot = [], 0
    for table in tables:
        lookups = table.spec.lookups_per_inference
        block = indices[:, slot : slot + lookups]
        parts.append(table.lookup(block.reshape(-1)).reshape(len(block), -1))
        slot += lookups
    return np.concatenate(parts, axis=1)


def _slot_indices(rng, tables, batch):
    return np.concatenate(
        [
            rng.integers(
                0, t.spec.rows, size=(batch, t.spec.lookups_per_inference)
            )
            for t in tables
        ],
        axis=1,
    )


class TestStackedVirtualTable:
    @pytest.fixture
    def tables(self):
        specs = [
            TableSpec(4, rows=50_000_000, dim=23),
            TableSpec(0, rows=16, dim=4, lookups_per_inference=3),
            TableSpec(9, rows=1000, dim=8),
            TableSpec(2, rows=7, dim=1, lookups_per_inference=2),
        ]
        return [VirtualTable(s, seed=5 + i % 2) for i, s in enumerate(specs)]

    def test_row_equals_member_lookups(self, rng, tables):
        stack = VirtualTable.stack(tables)
        assert stack.spec.dim == 23 + 3 * 4 + 8 + 2
        assert stack.spec.rows == 50_000_000 * 16**3 * 1000 * 7**2
        for batch in (1, 33):
            idx = _slot_indices(rng, tables, batch)
            np.testing.assert_array_equal(
                stack.lookup(idx), _row_oracle(tables, idx)
            )

    def test_stacks_nest(self, rng, tables):
        nested = VirtualTable.stack(
            [VirtualTable.stack(tables[:2]), *tables[2:]]
        )
        idx = _slot_indices(rng, tables, 9)
        np.testing.assert_array_equal(
            nested.lookup(idx), VirtualTable.stack(tables).lookup(idx)
        )

    def test_empty_batch(self, tables):
        stack = VirtualTable.stack(tables)
        empty = stack.lookup(np.empty((0, 7), dtype=np.int64))
        assert empty.shape == (0, stack.spec.dim)
        assert empty.dtype == np.float32

    @pytest.mark.parametrize("bad", [-1, 7])
    def test_out_of_range_names_the_table(self, tables, bad):
        idx = np.zeros((2, 7), dtype=np.int64)
        idx[1, 6] = bad  # the second slot of table 2 (7 rows)
        with pytest.raises(IndexError, match=r"table 2: .*\[0, 7\) in slot 6"):
            VirtualTable.stack(tables).lookup(idx)

    def test_shape_checked(self, tables):
        stack = VirtualTable.stack(tables)
        with pytest.raises(ValueError, match=r"\(batch, 7\)"):
            stack.lookup(np.zeros((2, 6), dtype=np.int64))
        with pytest.raises(ValueError, match=r"\(batch, 7\)"):
            stack.lookup(np.zeros(7, dtype=np.int64))

    def test_plain_table_takes_one_slot(self, tables):
        rows = np.array([3, 0, 999])
        np.testing.assert_array_equal(
            tables[2].lookup(rows[:, None]), tables[2].lookup(rows)
        )

    def test_only_virtual_tables_stack(self, tables):
        with pytest.raises(ValueError):
            VirtualTable.stack([])
        with pytest.raises(TypeError, match="MaterializedTable"):
            VirtualTable.stack([tables[1], tables[1].materialize()])


class TestMakeTables:
    def test_materialize_threshold(self, small_specs):
        threshold = 64 * 8 * 4 + 1  # tables 0..2 fall below
        tables = make_tables(small_specs, seed=0, materialize_below_bytes=threshold)
        assert isinstance(tables[0], MaterializedTable)
        assert isinstance(tables[5], VirtualTable)

    def test_materialized_equals_virtual_view(self, small_specs):
        mat = make_tables(small_specs, seed=3, materialize_below_bytes=1 << 30)
        virt = make_tables(small_specs, seed=3, materialize_below_bytes=0)
        idx = np.array([0, 1, 15])
        np.testing.assert_array_equal(mat[0].lookup(idx), virt[0].lookup(idx))

    def test_duplicate_ids_rejected(self):
        specs = [TableSpec(0, rows=4, dim=4), TableSpec(0, rows=8, dim=4)]
        with pytest.raises(ValueError):
            make_tables(specs)
