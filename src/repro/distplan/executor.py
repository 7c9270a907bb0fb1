"""Plan execution: fan-out/gather lookups, byte-identical to unsharded.

:class:`ShardedLookup` is the functional half of distributed serving —
the front-end's gather unit.  For every lookup it routes each index to
the shard owning that row range, gathers each owner's column slice, and
reassembles the full embedding vector.  Shards are *views over the
original tables* (row-offset plus column-slice), never re-derived
storage: a :class:`~repro.core.tables.VirtualTable` rebuilt from a shard
spec would draw from a different hash stream, so reslicing the original
is the only placement that can be byte-identical to the unsharded
oracle.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core.tables import EmbeddingTable, make_tables
from repro.distplan.plan import ShardingPlan, TableShard
from repro.models.spec import ModelSpec


class ShardedLookup:
    """Fan-out/gather over one model's tables placed by a plan.

    ``tables`` maps ``table_id`` to the *unsharded* tables (the ground
    truth each node's shard is a slice of).  The executor answers
    lookups in the original index space, byte-identical to calling the
    unsharded table directly, while reporting which nodes each lookup
    fanned out to.
    """

    def __init__(
        self,
        tables: Mapping[int, EmbeddingTable],
        plan: ShardingPlan,
    ):
        self.plan = plan
        self.tables = dict(tables)
        self._shards: dict[int, tuple[TableShard, ...]] = {}
        self._row_offsets: dict[int, np.ndarray] = {}
        for table_id, table in self.tables.items():
            shards = plan.shards_of(table_id)
            covered_cells = sum(s.rows * s.dim for s in shards)
            if covered_cells != table.spec.rows * table.spec.dim:
                raise ValueError(
                    f"table {table_id}: plan covers {covered_cells} "
                    f"cells, table has {table.spec.rows * table.spec.dim}"
                )
            self._shards[table_id] = shards
            # Distinct row-range starts, for routing indices to owners.
            self._row_offsets[table_id] = np.unique(
                np.array([s.row_start for s in shards], dtype=np.int64)
            )

    def lookup(self, table_id: int, indices: np.ndarray) -> np.ndarray:
        """Gather rows of one table through its shards."""
        table = self.tables[table_id]
        idx = np.asarray(indices, dtype=np.int64)
        spec = table.spec
        if idx.size and (idx.min() < 0 or idx.max() >= spec.rows):
            raise IndexError(
                f"table {table_id}: index out of range [0, {spec.rows})"
            )
        out = np.empty((idx.size, spec.dim), dtype=np.float32)
        offsets = self._row_offsets[table_id]
        band = np.searchsorted(offsets, idx, side="right") - 1
        for shard in self._shards[table_id]:
            row_band = np.searchsorted(
                offsets, shard.row_start, side="right"
            ) - 1
            mask = band == row_band
            if not mask.any():
                continue
            # The owner serves its column slice of the original rows —
            # a view of the unsharded table, hence byte-identical.
            rows = table.lookup(idx[mask])
            out[mask, shard.dim_start : shard.dim_start + shard.dim] = rows[
                :, shard.dim_start : shard.dim_start + shard.dim
            ]
        return out

    def owners_for(self, table_id: int, indices: np.ndarray) -> tuple[int, ...]:
        """Sorted distinct nodes one batched lookup fans out to."""
        idx = np.asarray(indices, dtype=np.int64)
        offsets = self._row_offsets[table_id]
        band = np.searchsorted(offsets, idx, side="right") - 1
        nodes = set()
        for shard in self._shards[table_id]:
            row_band = np.searchsorted(
                offsets, shard.row_start, side="right"
            ) - 1
            if (band == row_band).any():
                nodes.add(shard.node)
        return tuple(sorted(nodes))


def sharded_lookup_for(
    model: ModelSpec,
    plan: ShardingPlan,
    *,
    seed: int = 0,
    materialize_below_bytes: int = 0,
) -> ShardedLookup:
    """Build the executor over a model's deterministic tables."""
    tables = make_tables(
        model.tables,
        seed=seed,
        materialize_below_bytes=materialize_below_bytes,
    )
    return ShardedLookup(tables, plan)
