"""Unit tests for placement evaluation and the rule-4 allocator."""

import pytest

from repro.core.allocation import (
    Placement,
    PlacementError,
    allocate_to_banks,
)
from repro.core.cartesian import MergeGroup
from repro.core.tables import TableSpec
from repro.memory.spec import BankKind, BankSpec, MemorySystemSpec
from repro.memory.timing import default_timing_model


def singleton_groups(specs):
    return tuple(MergeGroup((s.table_id,)) for s in specs)


def by_id(specs):
    return {s.table_id: s for s in specs}


class TestPlacement:
    def test_partition_must_cover_exactly(self, tiny_memory, small_specs):
        groups = singleton_groups(small_specs[:-1])  # table 5 missing
        with pytest.raises(PlacementError):
            Placement(
                memory=tiny_memory,
                specs=by_id(small_specs),
                groups=groups,
                bank_of={g: 0 for g in groups},
            )

    def test_every_group_needs_a_bank(self, tiny_memory, small_specs):
        groups = singleton_groups(small_specs)
        with pytest.raises(PlacementError):
            Placement(
                memory=tiny_memory,
                specs=by_id(small_specs),
                groups=groups,
                bank_of={g: 0 for g in groups[:-1]},
            )

    def _placement(self, tiny_memory, small_specs, assignment):
        groups = singleton_groups(small_specs)
        return Placement(
            memory=tiny_memory,
            specs=by_id(small_specs),
            groups=groups,
            bank_of={g: assignment[g.member_ids[0]] for g in groups},
        )

    def test_dram_rounds_counts_busiest_channel(self, tiny_memory, small_specs):
        p = self._placement(
            tiny_memory, small_specs, {0: 0, 1: 0, 2: 0, 3: 1, 4: 2, 5: 3}
        )
        assert p.dram_access_rounds() == 3

    def test_onchip_not_counted_in_rounds(self, tiny_memory, small_specs):
        p = self._placement(
            tiny_memory, small_specs, {0: 4, 1: 4, 2: 4, 3: 1, 4: 2, 5: 3}
        )
        assert p.dram_access_rounds() == 1

    def test_lookup_latency_is_max_bank_serial(self, tiny_memory, small_specs):
        timing = default_timing_model()
        p = self._placement(
            tiny_memory, small_specs, {0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 3}
        )
        expected = max(
            timing.dram_access_ns(16) + timing.dram_access_ns(16),
            timing.dram_access_ns(32) + timing.dram_access_ns(32),
            timing.dram_access_ns(64),
        )
        assert p.lookup_latency_ns(timing) == pytest.approx(expected)

    def test_lookup_rounds_scale_latency(self, tiny_memory, small_specs):
        timing = default_timing_model()
        p = self._placement(
            tiny_memory, small_specs, {0: 0, 1: 1, 2: 2, 3: 3, 4: 0, 5: 1}
        )
        assert p.lookup_latency_ns(timing, lookup_rounds=3) == pytest.approx(
            3 * p.lookup_latency_ns(timing)
        )

    def test_capacity_validation(self, small_specs):
        mem = MemorySystemSpec(
            banks=(BankSpec(0, BankKind.HBM, 100),), name="too-small"
        )
        groups = singleton_groups(small_specs[:1])
        p = Placement(
            memory=mem,
            specs=by_id(small_specs[:1]),
            groups=groups,
            bank_of={groups[0]: 0},
        )
        with pytest.raises(PlacementError):
            p.validate()

    def test_unknown_bank_rejected(self, tiny_memory, small_specs):
        groups = singleton_groups(small_specs)
        bank_of = {g: 0 for g in groups}
        bank_of[groups[2]] = 999
        message = r"member_ids=\(2,\)\) in bank 999"
        with pytest.raises(PlacementError, match=message):
            Placement(
                memory=tiny_memory,
                specs=by_id(small_specs),
                groups=groups,
                bank_of=bank_of,
            )

    def test_stray_group_rejected(self, tiny_memory, small_specs):
        groups = singleton_groups(small_specs)
        bank_of = {g: 0 for g in groups}
        bank_of[MergeGroup((7,))] = 1
        message = r"member_ids=\(7,\)\) \(bank 1\)"
        with pytest.raises(PlacementError, match=message):
            Placement(
                memory=tiny_memory,
                specs=by_id(small_specs),
                groups=groups,
                bank_of=bank_of,
            )

    def _two_tables_in_one_bank(self, spare_bytes):
        specs = [TableSpec(0, rows=10, dim=4), TableSpec(1, rows=30, dim=2)]
        capacity = specs[0].nbytes + specs[1].nbytes + spare_bytes
        mem = MemorySystemSpec(
            banks=(BankSpec(0, BankKind.HBM, capacity),), name="exact"
        )
        groups = singleton_groups(specs)
        return specs, Placement(
            memory=mem,
            specs=by_id(specs),
            groups=groups,
            bank_of={g: 0 for g in groups},
        )

    def test_capacity_exact_fit_validates(self):
        _, p = self._two_tables_in_one_bank(spare_bytes=0)
        p.validate()  # must not raise

    def test_capacity_one_byte_over_names_the_bank(self):
        specs, p = self._two_tables_in_one_bank(spare_bytes=-1)
        # Table 0 fills its share first, so table 1 finds one byte short.
        need = specs[1].nbytes
        message = f"bank 0 (hbm): {need} B does not fit in {need - 1} B free"
        with pytest.raises(PlacementError) as excinfo:
            p.validate()
        assert str(excinfo.value) == message

    def test_storage_overhead_zero_without_merging(self, tiny_memory, small_specs):
        p = self._placement(
            tiny_memory, small_specs, {0: 0, 1: 1, 2: 2, 3: 3, 4: 0, 5: 1}
        )
        assert p.storage_overhead_fraction == pytest.approx(0.0)


class TestAllocateToBanks:
    def test_balances_dram_channels(self, tiny_memory):
        timing = default_timing_model()
        specs = [TableSpec(i, rows=1000, dim=8) for i in range(8)]
        placement = allocate_to_banks(
            singleton_groups(specs), by_id(specs), tiny_memory, timing
        )
        per_bank: dict[int, int] = {}
        for b in placement.bank_of.values():
            kind = tiny_memory.bank(b).kind
            if kind.is_dram:
                per_bank[b] = per_bank.get(b, 0) + 1
        # 8 equal tables over 4 DRAM channels -> perfectly balanced.
        assert set(per_bank.values()) == {2}

    def test_caches_small_tables_on_chip(self, tiny_memory):
        timing = default_timing_model()
        # 5 tables for 4 DRAM channels: caching the tiny one on-chip avoids
        # a second access round on some channel.
        specs = [
            TableSpec(0, rows=16, dim=4),
            *(TableSpec(i, rows=4096, dim=16) for i in range(1, 6)),
        ]
        placement = allocate_to_banks(
            singleton_groups(specs), by_id(specs), tiny_memory, timing
        )
        small_bank = placement.bank_of[MergeGroup((0,))]
        assert tiny_memory.bank(small_bank).kind is BankKind.ONCHIP
        assert placement.dram_access_rounds() == 2

    def test_oversized_group_raises(self, tiny_memory):
        timing = default_timing_model()
        specs = [TableSpec(0, rows=1 << 22, dim=16)]  # 256 MiB > all banks
        with pytest.raises(PlacementError):
            allocate_to_banks(
                singleton_groups(specs), by_id(specs), tiny_memory, timing
            )

    def test_huge_tables_go_to_ddr(self, u280, timing):
        # 300 MB exceeds a 256 MB HBM bank but fits DDR.
        specs = [TableSpec(0, rows=5_000_000, dim=16)]
        placement = allocate_to_banks(
            singleton_groups(specs), by_id(specs), u280, timing
        )
        bank = u280.bank(placement.bank_of[MergeGroup((0,))])
        assert bank.kind is BankKind.DDR

    def test_feasible_placements_validate(self, tiny_memory):
        timing = default_timing_model()
        specs = [TableSpec(i, rows=100 * (i + 1), dim=4) for i in range(6)]
        placement = allocate_to_banks(
            singleton_groups(specs), by_id(specs), tiny_memory, timing
        )
        placement.validate()  # must not raise
