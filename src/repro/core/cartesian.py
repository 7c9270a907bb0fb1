"""Cartesian-product merging of embedding tables (paper section 3.3).

Joining tables A (``r_A`` rows, ``d_A`` dims) and B (``r_B`` rows, ``d_B``
dims) produces a table with ``r_A * r_B`` rows of dimension ``d_A + d_B``:
row ``i * r_B + j`` is the concatenation ``A[i] ++ B[j]``.  One random DRAM
access then retrieves both embedding vectors, halving the number of memory
accesses at the cost of multiplicative storage.  Merges compose: a
:class:`MergeGroup` may contain any number of member tables (the planner's
heuristic rule 2 restricts itself to pairs, but the data structure — and the
brute-force oracle — support k-way products).

:class:`CartesianTable` is the *functional* merged table: it implements the
same ``lookup`` protocol as any other table, translates member indices to a
merged row index and back, and (for materialised use) can realise the
product array exactly as the FPGA's DRAM image would store it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.tables import EmbeddingTable, MaterializedTable, TableSpec


@dataclass(frozen=True)
class MergeGroup:
    """An ordered set of member table ids merged into one product table.

    A group with a single member is a table left unmerged; the uniform
    representation keeps allocation code free of special cases.
    """

    member_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.member_ids:
            raise ValueError("MergeGroup needs at least one member")
        if len(set(self.member_ids)) != len(self.member_ids):
            raise ValueError(f"duplicate members in group: {self.member_ids}")

    @property
    def is_merged(self) -> bool:
        return len(self.member_ids) > 1

    def __iter__(self):
        return iter(self.member_ids)

    def __len__(self) -> int:
        return len(self.member_ids)


def product_spec(
    group: MergeGroup, specs: Mapping[int, TableSpec], group_id: int | None = None
) -> TableSpec:
    """Spec of the merged table for ``group``.

    Rows multiply, dims add.  All members must share ``dtype_bytes`` and
    ``lookups_per_inference`` (the paper only merges tables that are looked
    up in lockstep — one vector per table per inference).
    """
    members = [specs[tid] for tid in group.member_ids]
    dtype_bytes = {m.dtype_bytes for m in members}
    if len(dtype_bytes) != 1:
        raise ValueError(
            f"cannot merge tables with mixed dtype_bytes: {sorted(dtype_bytes)}"
        )
    lookups = {m.lookups_per_inference for m in members}
    if len(lookups) != 1:
        raise ValueError(
            "cannot merge tables with different lookups_per_inference: "
            f"{sorted(lookups)}"
        )
    rows = math.prod(m.rows for m in members)
    dim = sum(m.dim for m in members)
    return TableSpec(
        table_id=group_id if group_id is not None else group.member_ids[0],
        rows=rows,
        dim=dim,
        dtype_bytes=dtype_bytes.pop(),
        lookups_per_inference=lookups.pop(),
    )


class CartesianTable:
    """Functional merged embedding table.

    Wraps the member :class:`EmbeddingTable` objects so lookups need no
    materialised product: the merged row for indices ``(i_1, ..., i_k)`` is
    the concatenation of the members' rows, which is by construction what
    the materialised product would store at the merged index.
    ``materialize`` builds that full product array for equivalence testing
    and for small on-device images.
    """

    def __init__(
        self,
        group: MergeGroup,
        members: Sequence[EmbeddingTable],
        group_id: int | None = None,
    ):
        if tuple(t.spec.table_id for t in members) != group.member_ids:
            raise ValueError(
                "members must be passed in group order: expected "
                f"{group.member_ids}, got {[t.spec.table_id for t in members]}"
            )
        self.group = group
        self.members = list(members)
        self.spec = product_spec(
            group, {t.spec.table_id: t.spec for t in members}, group_id=group_id
        )
        # Row strides for mixed-radix index translation: the merged index is
        # sum(i_k * stride_k), row-major in member order.
        strides = []
        acc = 1
        for member in reversed(self.members):
            strides.append(acc)
            acc *= member.spec.rows
        self._strides = np.array(list(reversed(strides)), dtype=np.int64)
        self._rows = np.array([t.spec.rows for t in self.members], dtype=np.int64)

    def merged_index(self, member_indices: np.ndarray) -> np.ndarray:
        """Translate per-member indices to merged row indices.

        ``member_indices`` has shape ``(batch, k)`` (or ``(k,)`` for a
        single lookup); returns shape ``(batch,)`` (or a scalar array).
        """
        idx = np.asarray(member_indices, dtype=np.int64)
        squeeze = idx.ndim == 1
        if squeeze:
            idx = idx[None, :]
        if idx.shape[1] != len(self.members):
            raise ValueError(
                f"expected {len(self.members)} member indices per lookup, "
                f"got shape {idx.shape}"
            )
        if idx.size and ((idx < 0).any() or (idx >= self._rows[None, :]).any()):
            raise IndexError("member index out of range for merged table")
        merged = idx @ self._strides
        return merged[0] if squeeze else merged

    def split_index(self, merged_indices: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`merged_index`: merged rows -> member indices."""
        merged = np.asarray(merged_indices, dtype=np.int64)
        squeeze = merged.ndim == 0
        merged = np.atleast_1d(merged)
        if merged.size and (merged.min() < 0 or merged.max() >= self.spec.rows):
            raise IndexError(
                f"merged index out of range [0, {self.spec.rows})"
            )
        out = (merged[:, None] // self._strides[None, :]) % self._rows[None, :]
        return out[0] if squeeze else out

    def lookup_members(self, member_indices: np.ndarray) -> np.ndarray:
        """Gather the concatenated vector for per-member indices.

        This is the access the FPGA performs in one DRAM read; functionally
        it equals concatenating each member's own lookup.
        """
        idx = np.asarray(member_indices, dtype=np.int64)
        squeeze = idx.ndim == 1
        if squeeze:
            idx = idx[None, :]
        parts = [
            member.lookup(idx[:, k]) for k, member in enumerate(self.members)
        ]
        out = np.concatenate(parts, axis=1)
        return out[0] if squeeze else out

    def lookup(self, indices: np.ndarray) -> np.ndarray:
        """Standard table interface: gather by *merged* row index."""
        merged = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        return self.lookup_members(self.split_index(merged))

    def materialize(self) -> MaterializedTable:
        """Build the full product array (row ``i*rB + j`` = ``A[i] ++ B[j]``).

        Only sensible for small products; the storage cost is exactly
        ``spec.nbytes``.
        """
        all_rows = np.arange(self.spec.rows, dtype=np.int64)
        return MaterializedTable(self.spec, self.lookup(all_rows))

