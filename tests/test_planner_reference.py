"""The planner and its allocator against their original, unoptimised forms.

``_reference_allocate`` restates the rule-4 allocator as it stood before
the ``k`` sweep was rewritten: one candidate list and ``min`` per group
per ``k``, every quantity re-read from its ``TableSpec``.
``_reference_plan`` restates the original outer loop over the Cartesian
candidate count, driving ``_reference_allocate``, and
``_reference_latency`` the per-bank ``bank_serial_ns`` maximum.  A seeded
corpus of random groupings, table sets, memory systems and timing models
must give the same outcome from both sides: the same groups, the same
``bank_of`` items in insertion order, the same ``summary()`` and latency
reprs, or the same exception type and message.

``tests/test_bruteforce.py`` stays the optimality oracle; this file only
checks that the fast paths decide exactly as the originals did.
"""

import numpy as np
import pytest

from repro.core.allocation import Placement, PlacementError, allocate_to_banks
from repro.core.cartesian import MergeGroup, product_spec
from repro.core.planner import Plan, PlannerConfig, pair_candidates, plan_tables
from repro.core.tables import TableSpec
from repro.memory.axi import AxiConfig
from repro.memory.spec import BankKind, BankSpec, MemorySystemSpec
from repro.memory.timing import MemoryTimingModel


def _reference_allocate(groups, specs, memory, timing):
    gspec = {g: product_spec(g, specs) for g in groups}
    cost = {
        g: s.lookups_per_inference * timing.dram_access_ns(s.vector_bytes)
        for g, s in gspec.items()
    }
    onchip_cost = {
        g: s.lookups_per_inference
        * timing.access_ns(BankKind.ONCHIP, s.vector_bytes)
        for g, s in gspec.items()
    }
    sorted_groups = sorted(
        groups, key=lambda g: (gspec[g].nbytes, g.member_ids)
    )
    by_cost_desc = sorted(
        groups, key=lambda g: (-cost[g], g.member_ids)
    )

    best_bank_of = None
    best_score = None
    onchip_banks = memory.onchip_banks
    onchip_capacity = sum(b.capacity_bytes for b in onchip_banks)
    max_k, prefix = 0, 0
    for group in sorted_groups:
        prefix += gspec[group].nbytes
        if prefix > onchip_capacity:
            break
        max_k += 1

    for k in range(max_k + 1):
        onchip_part = sorted_groups[:k]
        onchip_set = set(onchip_part)
        bank_of = {}

        onchip_load = {b.bank_id: 0 for b in onchip_banks}
        onchip_free = {b.bank_id: b.capacity_bytes for b in onchip_banks}
        onchip_busy = {b.bank_id: 0.0 for b in onchip_banks}
        feasible = True
        for group in onchip_part:
            nbytes = gspec[group].nbytes
            candidates = [
                bid for bid in onchip_free if onchip_free[bid] >= nbytes
            ]
            if not candidates:
                feasible = False
                break
            bid = min(candidates, key=lambda b: (onchip_load[b], b))
            bank_of[group] = bid
            onchip_free[bid] -= nbytes
            onchip_load[bid] += 1
            onchip_busy[bid] += onchip_cost[group]
        if not feasible:
            break

        dram_banks = memory.dram_banks
        if len(onchip_set) < len(sorted_groups) and not dram_banks:
            continue
        dram_free = {b.bank_id: b.capacity_bytes for b in dram_banks}
        dram_busy = {b.bank_id: 0.0 for b in dram_banks}
        ok = True
        for group in by_cost_desc:
            if group in onchip_set:
                continue
            spec = gspec[group]
            candidates = [
                bid for bid in dram_free if dram_free[bid] >= spec.nbytes
            ]
            if not candidates:
                ok = False
                break
            bid = min(candidates, key=lambda b: (dram_busy[b], b))
            bank_of[group] = bid
            dram_free[bid] -= spec.nbytes
            dram_busy[bid] += cost[group]
        if not ok:
            if k == 0:
                raise PlacementError(
                    "allocation failed: a group exceeds every DRAM bank's "
                    "capacity even with nothing cached on-chip"
                )
            continue

        latency = max(
            max(dram_busy.values(), default=0.0),
            max(onchip_busy.values(), default=0.0),
        )
        score = (latency, sum(dram_busy.values()))
        if best_score is None or score < best_score:
            best_bank_of, best_score = bank_of, score

    if best_bank_of is None:
        raise PlacementError("no feasible allocation found")
    placement = Placement(
        memory=memory,
        specs=dict(specs),
        groups=tuple(sorted_groups),
        bank_of=best_bank_of,
    )
    placement._spec_cache.update(gspec)
    return placement


def _reference_latency(placement, timing):
    used_banks = sorted(set(placement.bank_of.values()))
    return max(
        (placement.bank_serial_ns(b, timing) for b in used_banks),
        default=0.0,
    )


def _reference_groups(specs_sorted, n, all_ids, specs, config):
    candidates = specs_sorted[:n]
    groups = []
    consumed = set()
    for ids in pair_candidates(candidates):
        group = MergeGroup(ids)
        if len(ids) == 2:
            if product_spec(group, specs).nbytes > config.max_product_bytes:
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


def _reference_plan(specs, memory, timing, config):
    by_id = {s.table_id: s for s in specs}
    if len(by_id) != len(specs):
        raise ValueError("table_id values must be unique")
    all_ids = set(by_id)
    eligible = sorted(
        (s for s in specs if s.rows <= config.max_candidate_rows),
        key=lambda s: s.size_key,
    )
    max_n = len(eligible) if config.enable_cartesian else 0

    best = None
    best_score = None
    evaluated = 0
    for n in range(max_n + 1):
        if n == 1:
            continue
        groups = _reference_groups(eligible, n, all_ids, by_id, config)
        try:
            placement = _reference_allocate(groups, by_id, memory, timing)
        except PlacementError:
            continue
        evaluated += 1
        score = (
            _reference_latency(placement, timing),
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


# -- the corpus --------------------------------------------------------------

_CAPACITY = {
    BankKind.HBM: (1 << 10, 1 << 13, 1 << 16, 1 << 20, 1 << 24),
    BankKind.DDR: (1 << 14, 1 << 20, 1 << 28),
    BankKind.ONCHIP: (1 << 8, 1 << 10, 1 << 12, 1 << 14),
}


def _memory(
    rng, *, dram=True, onchip=True, roomy_onchip=False, tight=False, few=False
):
    """Banks of every kind, with shuffled, non-contiguous ids.

    ``tight`` leaves only small HBM banks, so many groups have to skip
    the least-busy bank, and some fit nowhere.  ``few`` keeps at most
    three DRAM banks, so merging tables pays.
    """
    kinds = []
    if dram:
        kinds += [BankKind.HBM] * int(rng.integers(0, 3 if few else 7))
        kinds += [BankKind.DDR] * int(rng.integers(0, 1 if tight else 3))
        if not kinds:
            kinds.append(BankKind.HBM)
    if onchip:
        kinds += [BankKind.ONCHIP] * int(rng.integers(1 if not dram else 0, 4))
    ids = rng.permutation(64)[: len(kinds)]
    banks = []
    for kind, bank_id in zip(kinds, ids):
        sizes = _CAPACITY[kind]
        if kind is BankKind.HBM and tight:
            sizes = sizes[:3]
        if kind is BankKind.ONCHIP and roomy_onchip:
            sizes = (1 << 22,)
        banks.append(BankSpec(int(bank_id), kind, int(rng.choice(sizes))))
    order = rng.permutation(len(banks))
    axi = AxiConfig(data_width_bits=int(rng.choice([32, 64, 512])))
    return MemorySystemSpec(banks=tuple(banks[i] for i in order), axi=axi)


def _timing(rng, memory):
    return MemoryTimingModel(
        axi=memory.axi,
        dram_init_ns=float(rng.choice([0.0, 100.5, 313.0])),
        onchip_latency_fraction=float(rng.choice([1.0 / 3.0, 0.5, 1.0])),
    )


def _spec(rng, table_id, dtype_bytes, lookups, members=1):
    """A table whose rows shrink with the size of the group it joins."""
    rows = {
        1: (4, 16, 64, 100, 1000, int(rng.integers(1, 5000))),
        2: (4, 16, 64, 100),
        3: (4, 16),
    }[members]
    dim = int(rng.choice([1, 4, 4, 8, 16]))
    return TableSpec(table_id, int(rng.choice(rows)), dim, dtype_bytes, lookups)


def _grouping(rng, mixed):
    """Random specs partitioned into groups of one to three tables."""
    ids = [int(i) for i in rng.permutation(200)[: int(rng.integers(1, 18))]]
    groups, specs = [], {}
    start = 0
    while start < len(ids):
        size = int(rng.choice([1, 1, 2, 2, 3]))
        members = tuple(ids[start : start + size])
        start += size
        dtype_bytes, lookups = 4, int(rng.choice([1, 1, 1, 2, 3]))
        for tid in members:
            if mixed:
                dtype_bytes = int(rng.choice([2, 4]))
                lookups = int(rng.choice([1, 2]))
            specs[tid] = _spec(rng, tid, dtype_bytes, lookups, size)
        groups.append(MergeGroup(members))
    return groups, specs


def _allocation_case(rng, index):
    shape = index % 6
    memory = _memory(
        rng,
        dram=shape != 1,
        onchip=shape != 2,
        roomy_onchip=shape == 1 and index % 12 == 1,
        tight=shape == 4,
    )
    groups, specs = _grouping(rng, mixed=shape == 3)
    return groups, specs, memory, _timing(rng, memory)


def _planner_case(rng, index):
    shape = index % 5
    memory = _memory(rng, dram=shape != 1, onchip=shape != 2, few=shape == 4)
    dtype_bytes, lookups = 4, 2 if shape == 4 else 1
    specs = []
    for tid in rng.permutation(100)[: int(rng.integers(1, 16 + 8 * (shape == 4)))]:
        if shape == 3:
            dtype_bytes = int(rng.choice([2, 4]))
        specs.append(_spec(rng, int(tid), dtype_bytes, lookups))
    config = PlannerConfig(
        max_candidate_rows=int(rng.choice([0, 50, 1000, 100_000])),
        max_product_bytes=int(rng.choice([0, 1 << 12, 1 << 20, 1 << 28])),
        enable_cartesian=bool(rng.random() < 0.85),
    )
    return specs, memory, _timing(rng, memory), config


def _fast_latency(result, timing):
    if isinstance(result, Plan):
        return result.lookup_latency_ns
    return result.lookup_latency_ns(timing)


def _slow_latency(result, timing):
    return _reference_latency(getattr(result, "placement", result), timing)


def _outcome(fn, args, timing, latency):
    """What ``fn(*args)`` decided, or the error it raised, as values."""
    try:
        result = fn(*args)
    except ValueError as exc:
        return ("raised", type(exc), str(exc))
    placement = getattr(result, "placement", result)
    extra = ()
    if isinstance(result, Plan):
        extra = (result.candidate_count, result.evaluated)
    return (
        placement.groups,
        list(placement.bank_of.items()),
        repr(placement.summary()),
        repr(latency(result, timing)),
        *extra,
    )


class TestAllocatorMatchesReference:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_groupings(self, seed):
        rng = np.random.default_rng(seed)
        outcomes = set()
        for index in range(150):
            args = _allocation_case(rng, index)
            timing = args[-1]
            fast = _outcome(allocate_to_banks, args, timing, _fast_latency)
            slow = _outcome(_reference_allocate, args, timing, _slow_latency)
            assert fast == slow, (index, args)
            kind = fast[2].split(":")[0] if fast[0] == "raised" else "placed"
            outcomes.add((index % 6, kind))
        # Every shape reaches the outcomes it was built for.
        assert {
            (1, "placed"),  # no DRAM bank, every group cached on chip
            (1, "no feasible allocation found"),
            (2, "placed"),  # no on-chip bank
            (3, "cannot merge tables with mixed dtype_bytes"),
            (3, "cannot merge tables with different lookups_per_inference"),
            (4, "placed"),
            (4, "allocation failed"),
        } <= outcomes

    @pytest.mark.parametrize("dram", [False, True])
    def test_repeated_group(self, dram):
        """A group listed twice fails the same way on both sides."""
        specs = {0: TableSpec(0, 4, 4), 1: TableSpec(1, 4, 4)}
        groups = [MergeGroup((0,)), MergeGroup((1,)), MergeGroup((1,))]
        banks = [BankSpec(7, BankKind.ONCHIP, 1 << 20)]
        if dram:
            banks.append(BankSpec(3, BankKind.HBM, 1 << 20))
        memory = MemorySystemSpec(banks=tuple(banks))
        timing = MemoryTimingModel(axi=memory.axi)
        args = (groups, specs, memory, timing)
        outcomes = [
            _outcome(allocate_to_banks, args, timing, _fast_latency),
            _outcome(_reference_allocate, args, timing, _slow_latency),
        ]
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == "raised"

    def test_lookup_rounds_latency(self):
        rng = np.random.default_rng(7)
        for index in range(30):
            groups, specs, memory, timing = _allocation_case(rng, 6 * index)
            try:
                placement = allocate_to_banks(groups, specs, memory, timing)
            except ValueError:
                continue
            used = sorted(set(placement.bank_of.values()))
            for rounds in (1, 3):
                expected = max(
                    (placement.bank_serial_ns(b, timing, rounds) for b in used),
                    default=0.0,
                )
                got = placement.lookup_latency_ns(timing, rounds)
                assert repr(got) == repr(expected)


class TestPlannerMatchesReference:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_table_sets(self, seed):
        rng = np.random.default_rng(100 + seed)
        outcomes = set()
        for index in range(60):
            args = _planner_case(rng, index)
            timing = args[2]
            fast = _outcome(plan_tables, args, timing, _fast_latency)
            slow = _outcome(_reference_plan, args, timing, _slow_latency)
            assert fast == slow, (index, args)
            if fast[0] == "raised":
                outcomes.add(fast[2].split(":")[0])
            else:
                outcomes.add("merged" if fast[-2] else "unmerged")
        assert {
            "merged",
            "unmerged",
            "planner found no feasible allocation for any candidate count",
            "cannot merge tables with mixed dtype_bytes",
        } <= outcomes
