"""Heuristic table-combination and allocation search (paper Algorithm 1).

The planner decides (a) which tables to merge via Cartesian products and
(b) where every resulting table lives in the hybrid memory system, so as to
minimise per-inference embedding lookup latency with storage as tie-break.
Brute force is infeasible (section 3.4.1), so the search applies the paper's
four heuristic rules:

1. only the ``n`` *smallest* tables are Cartesian candidates (products of
   large tables explode storage);
2. products join *pairs* of tables (three-way products spend small tables
   too fast);
3. within the candidate set, the smallest table is paired with the largest,
   the second-smallest with the second-largest, and so on;
4. the smallest resulting tables are cached on chip, subject to capacity
   and to co-located on-chip lookups not exceeding the off-chip bottleneck
   (implemented as a sweep inside
   :func:`~repro.core.allocation.allocate_to_banks`).

The outer loop tries every candidate count ``n`` from 0 to N and keeps the
best allocation: ``O(N)`` allocations, as in the paper.  Each allocation
sweeps ``K`` on-chip counts with a heap-picked LPT pass, so the search
costs ``O(N^2 K log banks)`` rather than the paper's ``O(N^2)``; one
memo of product specs serves every ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.allocation import (
    Placement,
    PlacementError,
    _allocate,
    _ProductSpecs,
)
from repro.core.cartesian import MergeGroup
from repro.core.tables import TableSpec
from repro.memory.spec import MemorySystemSpec
from repro.memory.timing import MemoryTimingModel, default_timing_model

MIB = 1024 * 1024


@dataclass(frozen=True)
class PlannerConfig:
    """Knobs of the heuristic search.

    Parameters
    ----------
    max_candidate_rows:
        Rule 1 cutoff: a table is a Cartesian candidate only if it has at
        most this many rows.  Production models mix ~100-row tables with
        hundred-million-row tables (section 2.2); only the former are worth
        merging.
    max_product_bytes:
        A pair is merged only if the product stays under this size, keeping
        the storage overhead "marginal" (paper: 1.9-3.2 % of the model).
    enable_cartesian:
        Setting this to ``False`` restricts the search to allocation only —
        the "HBM-only" configuration of Tables 3 and 4.
    """

    max_candidate_rows: int = 100_000
    max_product_bytes: int = 256 * MIB
    enable_cartesian: bool = True

    def __post_init__(self) -> None:
        for name in ("max_candidate_rows", "max_product_bytes"):
            value = getattr(self, name)
            if not value >= 0:  # NaN fails too
                raise ValueError(f"{name} must be >= 0, got {value}")


@dataclass
class Plan:
    """Result of the planner: a placement plus search metadata."""

    placement: Placement
    timing: MemoryTimingModel
    candidate_count: int  # the winning n (0 = no Cartesian products)
    evaluated: int = 0  # allocations evaluated during the search
    config: PlannerConfig = field(default_factory=PlannerConfig)

    @property
    def lookup_latency_ns(self) -> float:
        return self.placement.lookup_latency_ns(self.timing)

    @property
    def dram_access_rounds(self) -> int:
        return self.placement.dram_access_rounds()

    @property
    def merge_groups(self) -> list[MergeGroup]:
        return self.placement.merged_groups

    def summary(self) -> dict[str, object]:
        out = self.placement.summary()
        out.update(
            {
                "lookup_latency_ns": self.lookup_latency_ns,
                "candidate_count": self.candidate_count,
                "evaluated": self.evaluated,
            }
        )
        return out


def pair_candidates(
    candidates: Sequence[TableSpec],
) -> list[tuple[int, ...]]:
    """Apply rules 2 and 3: pair smallest with largest among candidates.

    Candidates are taken smallest-first; the pairing walks inward from both
    ends, so the tiniest table absorbs the biggest candidate.  An odd
    middle element stays unpaired.
    """
    ordered = sorted(candidates, key=lambda s: s.size_key)
    pairs: list[tuple[int, ...]] = []
    lo, hi = 0, len(ordered) - 1
    while lo < hi:
        pairs.append((ordered[lo].table_id, ordered[hi].table_id))
        lo += 1
        hi -= 1
    if lo == hi:
        pairs.append((ordered[lo].table_id,))
    return pairs


def _groups_for_candidate_count(
    specs_sorted: Sequence[TableSpec],
    n: int,
    all_ids: set[int],
    product_specs: Mapping[MergeGroup, TableSpec],
    config: PlannerConfig,
) -> tuple[MergeGroup, ...]:
    """Build the merge-group partition for a given candidate count ``n``."""
    candidates = specs_sorted[:n]
    groups: list[MergeGroup] = []
    consumed: set[int] = set()
    for ids in pair_candidates(candidates):
        group = MergeGroup(ids)
        if len(ids) == 2:
            if product_specs[group].nbytes > config.max_product_bytes:
                # Oversized product: keep the two tables separate.
                groups.extend(MergeGroup((tid,)) for tid in ids)
            else:
                groups.append(group)
        else:
            groups.append(group)
        consumed.update(ids)
    groups.extend(
        MergeGroup((tid,)) for tid in sorted(all_ids - consumed)
    )
    return tuple(groups)


def plan_tables(
    specs: Sequence[TableSpec],
    memory: MemorySystemSpec,
    timing: MemoryTimingModel | None = None,
    config: PlannerConfig | None = None,
) -> Plan:
    """Run Algorithm 1 and return the best plan found.

    Iterates the Cartesian candidate count ``n`` over ``0..N`` (``n = 0``
    is the no-merging baseline, so the heuristic never does worse than
    plain allocation), builds the rule-2/3 pairing for each ``n``, allocates
    with rule 4, and keeps the placement with the lowest lookup latency,
    breaking ties by total storage.
    """
    if timing is None:
        timing = default_timing_model(memory.axi)
    if config is None:
        config = PlannerConfig()
    by_id = {s.table_id: s for s in specs}
    if len(by_id) != len(specs):
        raise ValueError("table_id values must be unique")
    all_ids = set(by_id)
    # Rule 1: only small tables are candidates, smallest first.
    eligible = sorted(
        (s for s in specs if s.rows <= config.max_candidate_rows),
        key=lambda s: s.size_key,
    )
    max_n = len(eligible) if config.enable_cartesian else 0
    product_specs = _ProductSpecs(by_id)

    best: Plan | None = None
    best_score: tuple[float, int] | None = None
    evaluated = 0
    for n in range(max_n + 1):
        if n == 1:
            continue  # a single candidate has nothing to pair with
        groups = _groups_for_candidate_count(
            eligible, n, all_ids, product_specs, config
        )
        try:
            placement = _allocate(groups, product_specs, memory, timing)
        except PlacementError:
            continue
        evaluated += 1
        score = (
            placement.lookup_latency_ns(timing),
            placement.storage_bytes,
        )
        if best_score is None or score < best_score:
            best_score = score
            best = Plan(
                placement=placement,
                timing=timing,
                candidate_count=n,
                config=config,
            )
    if best is None:
        raise PlacementError(
            "planner found no feasible allocation for any candidate count"
        )
    best.evaluated = evaluated
    return best
