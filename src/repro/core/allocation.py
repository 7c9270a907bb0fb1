"""Table-to-bank allocation and placement evaluation.

A :class:`Placement` is the planner's output: a partition of the model's
embedding tables into :class:`~repro.core.cartesian.MergeGroup`s (merged or
singleton) and an assignment of every group to one memory bank.  This module
evaluates placements — per-inference lookup latency, DRAM access rounds,
storage overhead — and provides the greedy allocator that implements the
paper's heuristic rule 4 (cache the smallest tables on chip, subject to
capacity and to on-chip lookups not becoming the bottleneck).

Latency semantics: banks are accessed concurrently, accesses to the same
bank serialise, and one inference reads one vector per group per lookup
round.  The per-inference embedding latency is therefore the maximum over
banks of the bank's serial read time — the quantity Algorithm 1 minimises.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.cartesian import MergeGroup, product_spec
from repro.core.tables import TableSpec
from repro.memory.spec import BankKind, MemorySystemSpec
from repro.memory.timing import MemoryTimingModel


class PlacementError(ValueError):
    """Raised when a set of groups cannot be placed in a memory system."""


@dataclass
class Placement:
    """A full assignment of merge groups to memory banks."""

    memory: MemorySystemSpec
    specs: Mapping[int, TableSpec]
    groups: tuple[MergeGroup, ...]
    bank_of: dict[MergeGroup, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        covered: list[int] = [tid for g in self.groups for tid in g.member_ids]
        if sorted(covered) != sorted(self.specs):
            raise PlacementError(
                "groups must partition the table set exactly once: "
                f"covered={sorted(covered)}, specs={sorted(self.specs)}"
            )
        missing = [g for g in self.groups if g not in self.bank_of]
        if missing:
            raise PlacementError(f"groups without a bank: {missing}")
        # The groups are disjoint and each has a bank, so any further
        # entry places a group from outside the partition.
        if len(self.bank_of) > len(self.groups):
            groups = set(self.groups)
            group, bank_id = next(
                (g, b) for g, b in self.bank_of.items() if g not in groups
            )
            raise PlacementError(
                f"bank_of places {group} (bank {bank_id}), "
                "which is not one of the placement's groups"
            )
        bank_ids = {b.bank_id for b in self.memory.banks}
        for group, bank_id in self.bank_of.items():
            if bank_id not in bank_ids:
                raise PlacementError(
                    f"bank_of places {group} in bank {bank_id}, "
                    "which the memory system does not have"
                )
        self._spec_cache: dict[MergeGroup, TableSpec] = {}

    # -- derived specs ----------------------------------------------------

    def group_spec(self, group: MergeGroup) -> TableSpec:
        spec = self._spec_cache.get(group)
        if spec is None:
            spec = self._spec_cache[group] = product_spec(group, self.specs)
        return spec

    def groups_in(self, *kinds: BankKind) -> list[MergeGroup]:
        return [
            g
            for g in self.groups
            if self.memory.bank(self.bank_of[g]).kind in kinds
        ]

    @property
    def merged_groups(self) -> list[MergeGroup]:
        return [g for g in self.groups if g.is_merged]

    @property
    def num_tables_after_merge(self) -> int:
        """Number of physical tables stored (paper Table 3, "Table Num")."""
        return len(self.groups)

    @property
    def num_tables_in_dram(self) -> int:
        return len(self.groups_in(BankKind.HBM, BankKind.DDR))

    # -- storage ----------------------------------------------------------

    @property
    def base_storage_bytes(self) -> int:
        """Storage of the original, unmerged tables."""
        return sum(s.nbytes for s in self.specs.values())

    @property
    def storage_bytes(self) -> int:
        """Storage actually placed (products included)."""
        return sum(self.group_spec(g).nbytes for g in self.groups)

    @property
    def storage_overhead_fraction(self) -> float:
        """Extra storage relative to the unmerged model (Table 3)."""
        return self.storage_bytes / self.base_storage_bytes - 1.0

    # -- capacity ---------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`PlacementError` if any bank is over capacity.

        Groups fill their banks in ``bank_of`` order; the first one that
        does not fit in what its bank has left raises.
        """
        free = {b.bank_id: b.capacity_bytes for b in self.memory.banks}
        for group, bank_id in self.bank_of.items():
            nbytes = self.group_spec(group).nbytes
            if nbytes > free[bank_id]:
                kind = self.memory.bank(bank_id).kind.value
                raise PlacementError(
                    f"bank {bank_id} ({kind}): "
                    f"{nbytes} B does not fit in {free[bank_id]} B free"
                )
            free[bank_id] -= nbytes

    # -- timing -----------------------------------------------------------

    def bank_serial_ns(
        self,
        bank_id: int,
        timing: MemoryTimingModel,
        lookup_rounds: int = 1,
    ) -> float:
        """Serial time for one bank to serve its groups' lookups."""
        kind = self.memory.bank(bank_id).kind
        total = 0.0
        for group, bid in self.bank_of.items():
            if bid != bank_id:
                continue
            spec = self.group_spec(group)
            accesses = spec.lookups_per_inference * lookup_rounds
            total += accesses * timing.access_ns(kind, spec.vector_bytes)
        return total

    def lookup_latency_ns(
        self, timing: MemoryTimingModel, lookup_rounds: int = 1
    ) -> float:
        """Per-inference embedding lookup latency (max over banks).

        ``lookup_rounds`` scales every table's lookup count, modelling the
        multi-round DNN architectures of Figure 7.  One pass over
        ``bank_of`` sums every bank's serial time in the same order as
        :meth:`bank_serial_ns`, so the floats agree bit for bit.
        """
        kind_of: dict[int, BankKind] = {}
        access_ns: dict[tuple[BankKind, int], float] = {}
        per_bank: dict[int, float] = {}
        for group, bank_id in self.bank_of.items():
            kind = kind_of.get(bank_id)
            if kind is None:
                kind = kind_of[bank_id] = self.memory.bank(bank_id).kind
            spec = self.group_spec(group)
            key = (kind, spec.vector_bytes)
            ns = access_ns.get(key)
            if ns is None:
                ns = access_ns[key] = timing.access_ns(*key)
            accesses = spec.lookups_per_inference * lookup_rounds
            per_bank[bank_id] = per_bank.get(bank_id, 0.0) + accesses * ns
        return max(per_bank.values(), default=0.0)

    def dram_access_rounds(self, lookup_rounds: int = 1) -> int:
        """Accesses the busiest DRAM channel serialises (Table 3 rounds)."""
        per_bank: dict[int, int] = {}
        for group, bank_id in self.bank_of.items():
            if not self.memory.bank(bank_id).kind.is_dram:
                continue
            spec = self.group_spec(group)
            per_bank[bank_id] = (
                per_bank.get(bank_id, 0)
                + spec.lookups_per_inference * lookup_rounds
            )
        return max(per_bank.values(), default=0)

    def summary(self) -> dict[str, object]:
        return {
            "tables": self.num_tables_after_merge,
            "tables_in_dram": self.num_tables_in_dram,
            "merged_groups": len(self.merged_groups),
            "dram_rounds": self.dram_access_rounds(),
            "storage_bytes": self.storage_bytes,
            "storage_overhead": self.storage_overhead_fraction,
        }


class _ProductSpecs(dict):
    """``product_spec`` per merge group, computed on first use.

    The planner keeps one for a whole search, since the same singletons and
    rule-2/3 pairs recur at every candidate count.
    """

    def __init__(self, specs: Mapping[int, TableSpec]):
        super().__init__()
        self.specs = specs

    def __missing__(self, group: MergeGroup) -> TableSpec:
        spec = self[group] = product_spec(group, self.specs)
        return spec


def allocate_to_banks(
    groups: Sequence[MergeGroup],
    specs: Mapping[int, TableSpec],
    memory: MemorySystemSpec,
    timing: MemoryTimingModel,
) -> Placement:
    """Assign groups to banks: heuristic rule 4 + least-loaded DRAM packing.

    Rule 4 caches the smallest tables on chip.  The number cached is not
    fixed a priori: we sweep the count ``k`` of smallest groups placed
    on-chip, allocate the remainder to DRAM channels greedily
    (longest-processing-time onto the currently least-loaded channel with
    capacity), and keep the ``k`` with the lowest overall lookup latency.
    This satisfies both of the paper's constraints by construction — a
    ``k`` whose co-located on-chip lookups exceed the off-chip bottleneck
    simply loses the sweep.

    Raises :class:`PlacementError` if even ``k = 0`` cannot be placed (some
    group exceeds every DRAM bank's remaining capacity).
    """
    return _allocate(groups, _ProductSpecs(specs), memory, timing)


def _pack_dram(
    ranks: Sequence[int],
    k: int,
    size: Sequence[int],
    cost: Sequence[float],
    heap: list[tuple[float, int]],
    free: dict[int, int],
    busy: dict[int, float],
) -> list[int] | None:
    """LPT step: each rank in ``ranks`` from ``k`` up onto a DRAM bank.

    The bank is the least busy one with room, ties to the lower id: the
    ``(busy, bank_id)`` heap is popped until a bank has room, and the
    skipped entries are pushed back.  Ranks below ``k`` are cached on
    chip and skipped.  ``heap``, ``free`` and ``busy`` are updated in
    place.  Returns the bank picked for each placed rank, or ``None`` once
    a group fits no bank.
    """
    picks: list[int] = []
    for rank in ranks:
        if rank < k:
            continue
        nbytes = size[rank]
        skipped = []
        while heap and free[heap[0][1]] < nbytes:
            skipped.append(heapq.heappop(heap))
        if not heap:
            return None
        busy_ns, bank_id = heap[0]
        busy_ns += cost[rank]
        heapq.heapreplace(heap, (busy_ns, bank_id))
        busy[bank_id] = busy_ns
        free[bank_id] -= nbytes
        for entry in skipped:
            heapq.heappush(heap, entry)
        picks.append(bank_id)
    return picks


def _allocate(
    groups: Sequence[MergeGroup],
    product_specs: _ProductSpecs,
    memory: MemorySystemSpec,
    timing: MemoryTimingModel,
) -> Placement:
    """:func:`allocate_to_banks`, with the group specs taken from a memo.

    Cost for ``N`` groups and ``K`` on-chip counts swept: O(N log N) to
    rank the groups once, then per ``k`` one on-chip first-fit step and one
    heap pick per DRAM group (O(log banks), plus any full banks it skips).
    Groups that precede every on-chip candidate in LPT order are packed
    once for all ``k``.  That is O(N K log banks) per call, against
    O(N K banks) for a candidate list and ``min`` per pick.
    """
    gspec = {g: product_specs[g] for g in groups}
    # Everything the sweep reads is computed once, in flat lists indexed by
    # a group's rank in smallest-first order.
    sorted_groups = sorted(
        groups, key=lambda g: (gspec[g].nbytes, g.member_ids)
    )
    n = len(sorted_groups)
    dram_ns: dict[int, float] = {}
    onchip_ns: dict[int, float] = {}
    size, cost, onchip_cost = [], [], []
    for group in sorted_groups:
        spec = gspec[group]
        vector_bytes = spec.vector_bytes
        if vector_bytes not in dram_ns:
            dram_ns[vector_bytes] = timing.dram_access_ns(vector_bytes)
            onchip_ns[vector_bytes] = timing.access_ns(
                BankKind.ONCHIP, vector_bytes
            )
        size.append(spec.nbytes)
        cost.append(spec.lookups_per_inference * dram_ns[vector_bytes])
        onchip_cost.append(spec.lookups_per_inference * onchip_ns[vector_bytes])
    # Most expensive groups first (LPT balance).
    lpt = sorted(range(n), key=lambda r: (-cost[r], sorted_groups[r].member_ids))

    # The sweep over the on-chip table count k stops as soon as the k
    # smallest groups no longer fit the *total* on-chip capacity — a valid
    # upper bound (first-fit can only fail earlier).
    onchip_banks = memory.onchip_banks
    onchip_capacity = sum(b.capacity_bytes for b in onchip_banks)
    max_k, prefix = 0, 0
    for nbytes in size:
        prefix += nbytes
        if prefix > onchip_capacity:
            break
        max_k += 1

    # Groups that come, in LPT order, before every on-chip candidate are
    # in DRAM whatever k is, and are packed first for every k: pack them
    # once and start each k from a copy of that state.
    shared = 0
    while shared < n and lpt[shared] >= max_k:
        shared += 1
    dram_banks = memory.dram_banks
    free0 = {b.bank_id: b.capacity_bytes for b in dram_banks}
    busy0 = {b.bank_id: 0.0 for b in dram_banks}
    # Sorted, the list is a valid heap whatever order the ids come in.
    heap0 = sorted((0.0, bank_id) for bank_id in busy0)
    shared_picks = _pack_dram(
        lpt[:shared], max_k, size, cost, heap0, free0, busy0
    )
    rest = lpt[shared:]

    # On-chip first-fit state, carried from k to k + 1: step k + 1 only
    # adds the k-th smallest group.
    onchip_load = {b.bank_id: 0 for b in onchip_banks}
    onchip_free = {b.bank_id: b.capacity_bytes for b in onchip_banks}
    onchip_busy = {b.bank_id: 0.0 for b in onchip_banks}
    onchip_bank: list[int] = []

    best_k, best_picks = 0, []
    best_score: tuple[float, float] | None = None
    for k in range(max_k + 1):
        if k:
            # --- on-chip: first-fit into the least-occupied on-chip bank.
            nbytes = size[k - 1]
            fits = [bid for bid in onchip_free if onchip_free[bid] >= nbytes]
            if not fits:
                break  # larger k only adds bigger tables; stop the sweep
            bid = min(fits, key=lambda b: (onchip_load[b], b))
            onchip_bank.append(bid)
            onchip_free[bid] -= nbytes
            onchip_load[bid] += 1
            onchip_busy[bid] += onchip_cost[k - 1]

        # --- DRAM: LPT greedy onto least-loaded channel with capacity.
        # Without a DRAM bank only "every group on chip" can work, and a
        # repeated group never gets there: the set of cached groups is short.
        if not dram_banks and len(set(sorted_groups[:k])) < n:
            continue
        picks = None
        if shared_picks is not None:
            heap, free, busy = list(heap0), dict(free0), dict(busy0)
            picks = _pack_dram(rest, k, size, cost, heap, free, busy)
        if picks is None:
            if k == 0:
                raise PlacementError(
                    "allocation failed: a group exceeds every DRAM bank's "
                    "capacity even with nothing cached on-chip"
                )
            continue

        # Latency = slowest bank; storage is k-independent, so ties are
        # broken towards lower aggregate DRAM busy time, i.e. towards
        # caching more tables on chip.  ``busy`` keeps the banks in
        # ``memory.dram_banks`` order, so its float sum does too.
        latency = max(
            max(busy.values(), default=0.0),
            max(onchip_busy.values(), default=0.0),
        )
        score = (latency, sum(busy.values()))
        if best_score is None or score < best_score:
            best_k, best_picks, best_score = k, picks, score

    if best_score is None:
        raise PlacementError("no feasible allocation found")
    # bank_of lists the on-chip groups smallest-first, then the DRAM
    # groups in LPT order.
    bank_of = {
        sorted_groups[r]: bid for r, bid in enumerate(onchip_bank[:best_k])
    }
    dram_ranks = lpt[:shared] + [r for r in rest if r >= best_k]
    for rank, bid in zip(dram_ranks, shared_picks + best_picks):
        bank_of[sorted_groups[rank]] = bid
    placement = Placement(
        memory=memory,
        specs=dict(product_specs.specs),
        groups=tuple(sorted_groups),
        bank_of=bank_of,
    )
    placement._spec_cache.update(gspec)
    return placement
