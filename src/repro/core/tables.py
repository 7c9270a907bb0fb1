"""Embedding tables: specs, materialised storage, and virtual storage.

Two executable representations back every :class:`TableSpec`:

* :class:`MaterializedTable` — a real ``numpy`` array, used for model-scale
  tests and the functional inference path;
* :class:`VirtualTable` — a storage-free table whose rows are derived
  deterministically from ``(seed, table_id, row, column)`` by an integer
  hash.  This lets the library operate *functionally* on industrial-scale
  specs (the paper's large model is 15.1 GB; its biggest tables have tens of
  millions of rows) without allocating them: any row can be generated on
  demand and two independent derivations of the same row agree bit-for-bit,
  which is exactly what the Cartesian-product equivalence tests need.

Both expose the same ``lookup`` interface and are interchangeable throughout
the library.  :meth:`VirtualTable.stack` joins many virtual tables into
one that reads a model's whole embedding row per query, hashed in a single
pass, so an inference call costs one gather however many tables it reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

#: Element width used by the paper's storage accounting (32-bit floats).
DEFAULT_DTYPE_BYTES = 4


@dataclass(frozen=True)
class TableSpec:
    """Static description of one embedding table."""

    table_id: int
    rows: int
    dim: int
    dtype_bytes: int = DEFAULT_DTYPE_BYTES
    lookups_per_inference: int = 1

    def __post_init__(self) -> None:
        if self.rows <= 0:
            raise ValueError(
                f"table {self.table_id}: rows must be positive, got {self.rows}"
            )
        if self.dim <= 0:
            raise ValueError(
                f"table {self.table_id}: dim must be positive, got {self.dim}"
            )
        if self.dtype_bytes <= 0:
            raise ValueError(
                f"table {self.table_id}: dtype_bytes must be positive, "
                f"got {self.dtype_bytes}"
            )
        if self.lookups_per_inference <= 0:
            raise ValueError(
                f"table {self.table_id}: lookups_per_inference must be "
                f"positive, got {self.lookups_per_inference}"
            )

    @property
    def nbytes(self) -> int:
        """Storage footprint of the full table."""
        return self.rows * self.dim * self.dtype_bytes

    @property
    def vector_bytes(self) -> int:
        """Payload of a single embedding vector."""
        return self.dim * self.dtype_bytes

    @property
    def size_key(self) -> tuple[int, int]:
        """Sort key ordering tables smallest-first, ties by id.

        The planner's heuristic rules are all phrased in terms of this
        smallest-to-largest order.
        """
        return (self.nbytes, self.table_id)

    def __repr__(self) -> str:
        return (
            f"TableSpec(id={self.table_id}, rows={self.rows}, dim={self.dim}, "
            f"bytes={self.nbytes})"
        )


@runtime_checkable
class EmbeddingTable(Protocol):
    """Anything that can be looked up like an embedding table."""

    spec: TableSpec

    def lookup(self, indices: np.ndarray) -> np.ndarray:
        """Gather rows; returns float32 of shape ``(len(indices), dim)``."""
        ...


def _check_indices(indices: np.ndarray, rows: int, table_id: int) -> np.ndarray:
    indices = np.asarray(indices)
    if indices.ndim != 1:
        raise ValueError(f"indices must be 1-D, got shape {indices.shape}")
    if indices.size and (indices.min() < 0 or indices.max() >= rows):
        raise IndexError(
            f"table {table_id}: index out of range [0, {rows}) "
            f"(got min={indices.min()}, max={indices.max()})"
        )
    return indices.astype(np.int64, copy=False)


class MaterializedTable:
    """An embedding table backed by an in-memory ``numpy`` array."""

    def __init__(self, spec: TableSpec, values: np.ndarray):
        values = np.asarray(values, dtype=np.float32)
        if values.shape != (spec.rows, spec.dim):
            raise ValueError(
                f"table {spec.table_id}: values shape {values.shape} does not "
                f"match spec ({spec.rows}, {spec.dim})"
            )
        self.spec = spec
        self.values = values

    def lookup(self, indices: np.ndarray) -> np.ndarray:
        indices = _check_indices(indices, self.spec.rows, self.spec.table_id)
        return self.values[indices]


#: splitmix64's increment and its two finaliser multipliers.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix_in_place(z: np.ndarray) -> None:
    """splitmix64's finaliser, applied in place to a uint64 array."""
    tmp = np.empty_like(z)
    for shift, mix in ((np.uint64(30), _MIX1), (np.uint64(27), _MIX2)):
        np.right_shift(z, shift, out=tmp)
        z ^= tmp
        z *= mix
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64: uint64 -> well-mixed uint64."""
    z = x.astype(np.uint64, copy=True)
    z += _GOLDEN
    _mix_in_place(z)
    return z


def _uniform_cells(z: np.ndarray) -> np.ndarray:
    """Hash cell keys into float32 uniforms in ``[-1, 1)``, reusing ``z``.

    ``z`` is a uint64 array of keys that already include splitmix64's
    increment; it is overwritten.  The top 24 bits of each hash map to
    ``u * 2**-23 - 1``, which float32 represents exactly.
    """
    _mix_in_place(z)
    z >>= np.uint64(40)
    out = z.astype(np.float32)
    out *= np.float32(2.0**-23)
    out -= np.float32(1.0)
    return out


class VirtualTable:
    """A deterministic, storage-free embedding table.

    ``values[r, c]`` is a pure function of ``(seed, table_id, r, c)`` mapped
    to a float32 uniform in ``[-1, 1)``.  Rows are generated on demand, so a
    spec with hundreds of millions of rows costs nothing until looked up.

    :meth:`stack` joins virtual tables into one *stacked* table: the
    virtual Cartesian product of their lookup slots, section 3.3's merge
    taken to every table at once.  Its row for slot indices
    ``(i_1, ..., i_k)`` is the slots' vectors side by side, so one lookup
    reads a whole embedding row per query, hashed in a single pass.
    """

    def __init__(self, spec: TableSpec, seed: int = 0):
        self.spec = spec
        # Fold seed and table id into one 64-bit stream selector.
        stream = np.uint64(
            (np.uint64(seed) << np.uint64(32))
            ^ _splitmix64(np.asarray([spec.table_id], dtype=np.uint64))[0]
        )
        # Cell (r, c) hashes the key r * dim + c + stream, plus splitmix64's
        # increment; uint64 arithmetic wraps, so all but r * dim fold into
        # one key per column.
        keys = np.arange(spec.dim, dtype=np.uint64)
        keys += stream
        keys += _GOLDEN
        #: (spec, column keys) of each index a lookup row takes.
        self._slots = ((spec, keys),)
        self._lay_out()

    @classmethod
    def stack(cls, tables: Sequence["VirtualTable"]) -> "VirtualTable":
        """One table reading every member's slots side by side.

        Each member owns ``spec.lookups_per_inference`` consecutive slots,
        in member order, so a row holds the member vectors in the layout
        of a model's embedding features.  The stacked spec multiplies the
        slots' rows and adds their dims, like a Cartesian product's.
        """
        if not tables:
            raise ValueError("stack needs at least one table")
        for table in tables:
            if not isinstance(table, VirtualTable):
                raise TypeError(
                    f"only VirtualTables stack, got {type(table).__name__}"
                )
        slots = tuple(
            slot
            for table in tables
            for _ in range(table.spec.lookups_per_inference)
            for slot in table._slots
        )
        stacked = cls.__new__(cls)
        stacked.spec = TableSpec(
            table_id=tables[0].spec.table_id,
            rows=math.prod(spec.rows for spec, _ in slots),
            dim=sum(spec.dim for spec, _ in slots),
        )
        stacked._slots = slots
        stacked._lay_out()
        return stacked

    def _lay_out(self) -> None:
        """Per-slot bounds and row stride; per-column source slot and key."""
        specs = [spec for spec, _ in self._slots]
        dims = [spec.dim for spec in specs]
        self._slot_rows = np.array([spec.rows for spec in specs])
        self._slot_ids = np.array([spec.table_id for spec in specs])
        self._slot_stride = np.array(dims, dtype=np.uint64)
        self._src = np.repeat(np.arange(len(specs)), dims)
        self._col_key = np.concatenate([keys for _, keys in self._slots])

    def lookup(self, indices: np.ndarray) -> np.ndarray:
        """Gather rows as float32 of shape ``(batch, spec.dim)``.

        A plain table takes ``(batch,)`` row indices.  A stacked table
        takes ``(batch, slots)`` slot indices, since its product row index
        would overflow int64.
        """
        idx = np.asarray(indices, dtype=np.int64)
        slots = len(self._slots)
        if idx.ndim == 1 and slots == 1:
            idx = idx[:, None]
        if idx.ndim != 2 or idx.shape[1] != slots:
            raise ValueError(
                f"table {self.spec.table_id}: indices must have shape "
                f"{'(batch,) or ' if slots == 1 else ''}(batch, {slots}), "
                f"got {idx.shape}"
            )
        if idx.size:
            bad = (idx.min(axis=0) < 0) | (idx.max(axis=0) >= self._slot_rows)
            if bad.any():
                slot = int(np.argmax(bad))
                raise IndexError(
                    f"table {self._slot_ids[slot]}: index out of range "
                    f"[0, {self._slot_rows[slot]})"
                    + (f" in slot {slot}" if slots > 1 else "")
                )
        # Indices are checked non-negative, so viewing them unsigned is exact.
        row_keys = idx.view(np.uint64) * self._slot_stride
        cells = row_keys[:, self._src]
        cells += self._col_key
        return _uniform_cells(cells)

    def materialize(self) -> MaterializedTable:
        """Realise the full table as an array (small plain specs only)."""
        all_rows = np.arange(self.spec.rows, dtype=np.int64)
        return MaterializedTable(self.spec, self.lookup(all_rows))


def make_tables(
    specs: Sequence[TableSpec],
    seed: int = 0,
    materialize_below_bytes: int = 0,
) -> dict[int, EmbeddingTable]:
    """Instantiate one table per spec, keyed by ``table_id``.

    Tables smaller than ``materialize_below_bytes`` are materialised from
    their virtual definition (so materialised and virtual views of the same
    spec hold identical values); larger tables stay virtual.
    """
    out: dict[int, EmbeddingTable] = {}
    for spec in specs:
        if spec.table_id in out:
            raise ValueError(f"duplicate table_id {spec.table_id}")
        virtual = VirtualTable(spec, seed=seed)
        if spec.nbytes < materialize_below_bytes:
            out[spec.table_id] = virtual.materialize()
        else:
            out[spec.table_id] = virtual
    return out
