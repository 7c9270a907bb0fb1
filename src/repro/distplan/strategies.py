"""Sharding strategies: registry + table-wise / row-wise / column-wise.

Strategies are named objects in a :class:`repro.registry.Registry`:
:func:`get_strategy` raises :class:`UnknownShardingStrategyError` naming
every registered strategy, and the CLI lists them live.

A strategy is a *proposer* in the torchrec sense: given a model's table
specs and the cluster's nodes, it returns one candidate placement (a
tuple of :class:`~repro.distplan.plan.TableShard`).  The planner
(:mod:`repro.distplan.planner`) enumerates proposers, scores their
candidates with the per-backend cost models, and keeps the best — a
strategy only decides *where bytes go*, never how good that is.

Built-ins, in increasing willingness to split a table:

* ``table-wise`` — whole tables, largest-first onto the node with the
  most free capacity.  Fails when any single table exceeds every node.
* ``row-wise`` — like table-wise, but a table that fits nowhere is
  split into contiguous row ranges across the free capacity.
* ``column-wise`` — like table-wise, but oversized tables are split
  along the embedding dimension instead, so one lookup fans out to all
  column owners and gathers a slice from each.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

from repro.core.tables import TableSpec
from repro.distplan.plan import ShardingPlanError, TableShard, check_tables_fit
from repro.distplan.topology import NodeView
from repro.registry import Registry, UnknownNameError


class UnknownShardingStrategyError(UnknownNameError):
    """Raised when a sharding-strategy name is not in the registry."""


@runtime_checkable
class ShardingStrategy(Protocol):
    """Uniform surface every registered sharding strategy implements."""

    name: str

    def propose(
        self,
        tables: Sequence[TableSpec],
        nodes: Sequence[NodeView],
    ) -> tuple[TableShard, ...]:
        """One candidate placement; raises ShardingPlanError if none."""
        ...


_REGISTRY: Registry[ShardingStrategy] = Registry(
    "sharding strategy", "strategies", UnknownShardingStrategyError
)
register_strategy = _REGISTRY.register
get_strategy = _REGISTRY.get
available_strategies = _REGISTRY.names


# ---------------------------------------------------------------------------
# Built-in strategies
# ---------------------------------------------------------------------------


def _largest_first(tables: Sequence[TableSpec]) -> list[TableSpec]:
    """Deterministic greedy order: biggest bytes first, ties by id."""
    return sorted(tables, key=lambda t: (-t.nbytes, t.table_id))


def _freest_node(free: list[int]) -> int:
    """Node with the most free bytes; ties to the lowest index."""
    return max(range(len(free)), key=lambda i: (free[i], -i))


def _whole_table_shard(table: TableSpec, node: int) -> TableShard:
    return TableShard(
        original_id=table.table_id,
        node=node,
        row_start=0,
        rows=table.rows,
        dim_start=0,
        dim=table.dim,
        dtype_bytes=table.dtype_bytes,
    )


class TableWiseStrategy:
    """Whole tables, largest-first onto the freest node (no splitting)."""

    name = "table-wise"

    def propose(
        self,
        tables: Sequence[TableSpec],
        nodes: Sequence[NodeView],
    ) -> tuple[TableShard, ...]:
        check_tables_fit("table-wise proposal", tables, nodes)
        free = [node.capacity_bytes for node in nodes]
        shards = []
        for table in _largest_first(tables):
            node = _freest_node(free)
            if table.nbytes > free[node]:
                raise ShardingPlanError(
                    f"table-wise: table {table.table_id} needs "
                    f"{table.nbytes} B but the freest node "
                    f"({nodes[node].backend} {node}) has only "
                    f"{free[node]} B left; a splitting strategy "
                    f"(row-wise, column-wise) is required"
                )
            free[node] -= table.nbytes
            shards.append(_whole_table_shard(table, node))
        return tuple(shards)


class _SplittingStrategy:
    """Shared greedy skeleton: place whole when possible, split when not."""

    name = ""

    def propose(
        self,
        tables: Sequence[TableSpec],
        nodes: Sequence[NodeView],
    ) -> tuple[TableShard, ...]:
        check_tables_fit(f"{self.name} proposal", tables, nodes)
        free = [node.capacity_bytes for node in nodes]
        shards = []
        for table in _largest_first(tables):
            node = _freest_node(free)
            if table.nbytes <= free[node]:
                free[node] -= table.nbytes
                shards.append(_whole_table_shard(table, node))
                continue
            shards.extend(self._split(table, nodes, free))
        return tuple(shards)

    def _split(
        self,
        table: TableSpec,
        nodes: Sequence[NodeView],
        free: list[int],
    ) -> list[TableShard]:
        raise NotImplementedError


class RowWiseStrategy(_SplittingStrategy):
    """Oversized tables split into contiguous row ranges across nodes."""

    name = "row-wise"

    def _split(
        self,
        table: TableSpec,
        nodes: Sequence[NodeView],
        free: list[int],
    ) -> list[TableShard]:
        row_bytes = table.dim * table.dtype_bytes
        shards = []
        row = 0
        # Fill nodes freest-first so the split also balances occupancy.
        while row < table.rows:
            node = _freest_node(free)
            rows = min(table.rows - row, free[node] // row_bytes)
            if rows <= 0:
                remaining = table.rows - row
                raise ShardingPlanError(
                    f"row-wise: table {table.table_id} needs "
                    f"{table.nbytes} B but {remaining * row_bytes} B of "
                    f"rows remain unplaced with every node full "
                    f"(total cluster capacity "
                    f"{sum(n.capacity_bytes for n in nodes)} B)"
                )
            shards.append(
                TableShard(
                    original_id=table.table_id,
                    node=node,
                    row_start=row,
                    rows=rows,
                    dim_start=0,
                    dim=table.dim,
                    dtype_bytes=table.dtype_bytes,
                )
            )
            free[node] -= rows * row_bytes
            row += rows
        return shards


class ColumnWiseStrategy(_SplittingStrategy):
    """Oversized tables split along the embedding dimension."""

    name = "column-wise"

    def _split(
        self,
        table: TableSpec,
        nodes: Sequence[NodeView],
        free: list[int],
    ) -> list[TableShard]:
        col_bytes = table.rows * table.dtype_bytes
        shards = []
        col = 0
        while col < table.dim:
            node = _freest_node(free)
            cols = min(table.dim - col, free[node] // col_bytes)
            if cols <= 0:
                raise ShardingPlanError(
                    f"column-wise: table {table.table_id} has "
                    f"{col_bytes} B columns but no node can hold one "
                    f"more ({table.dim - col} of {table.dim} columns "
                    f"unplaced; total cluster capacity "
                    f"{sum(n.capacity_bytes for n in nodes)} B)"
                )
            shards.append(
                TableShard(
                    original_id=table.table_id,
                    node=node,
                    row_start=0,
                    rows=table.rows,
                    dim_start=col,
                    dim=cols,
                    dtype_bytes=table.dtype_bytes,
                )
            )
            free[node] -= cols * col_bytes
            col += cols
        return shards


#: Built-in strategies, registered at import (like routing policies).
DEFAULT_STRATEGIES: tuple[ShardingStrategy, ...] = (
    TableWiseStrategy(),
    RowWiseStrategy(),
    ColumnWiseStrategy(),
)

for _strategy in DEFAULT_STRATEGIES:
    register_strategy(_strategy)
