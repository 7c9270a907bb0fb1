"""MicroRec core: tables, Cartesian products, planner, engine."""

from repro.core.tables import (
    EmbeddingTable,
    MaterializedTable,
    TableSpec,
    VirtualTable,
    make_tables,
)
from repro.core.cartesian import (
    CartesianTable,
    MergeGroup,
    product_spec,
)
from repro.core.allocation import (
    Placement,
    PlacementError,
    allocate_to_banks,
)
from repro.core.planner import Plan, PlannerConfig, pair_candidates, plan_tables
from repro.core.bruteforce import brute_force_plan, set_partitions
from repro.core.engine import MicroRecEngine

__all__ = [
    "TableSpec",
    "EmbeddingTable",
    "MaterializedTable",
    "VirtualTable",
    "make_tables",
    "MergeGroup",
    "CartesianTable",
    "product_spec",
    "Placement",
    "PlacementError",
    "allocate_to_banks",
    "Plan",
    "PlannerConfig",
    "plan_tables",
    "pair_candidates",
    "brute_force_plan",
    "set_partitions",
    "MicroRecEngine",
]
