"""Unit tests for the heuristic planner (Algorithm 1)."""

import hashlib
import json

import pytest

from repro.core.allocation import allocate_to_banks
from repro.core.cartesian import MergeGroup
from repro.core.planner import (
    PlannerConfig,
    pair_candidates,
    plan_tables,
)
from repro.core.tables import TableSpec
from repro.memory.spec import u280_memory_system
from repro.runtime import deploy_model
from repro.memory.timing import MemoryTimingModel, default_timing_model
from repro.models.spec import production_large, production_small


class TestPairCandidates:
    def test_smallest_pairs_with_largest(self):
        """Heuristic rule 3."""
        specs = [TableSpec(i, rows=10 * (i + 1), dim=4) for i in range(6)]
        pairs = pair_candidates(specs)
        assert (0, 5) in pairs
        assert (1, 4) in pairs
        assert (2, 3) in pairs

    def test_smallest_with_largest_stores_less_than_adjacent_pairs(self):
        """Rule 3 ablation: pairing neighbours multiplies two similar row
        counts, so its products outgrow the paper's pairing."""
        specs = [TableSpec(i, rows=100 * 2**i, dim=4) for i in range(8)]
        by_id = {s.table_id: s for s in specs}
        memory = u280_memory_system()
        timing = MemoryTimingModel(axi=memory.axi)
        ordered = sorted(specs, key=lambda s: s.size_key)
        adjacent = [
            (ordered[2 * i].table_id, ordered[2 * i + 1].table_id)
            for i in range(4)
        ]

        def storage(pairs):
            groups = [MergeGroup(pair) for pair in pairs]
            placement = allocate_to_banks(groups, by_id, memory, timing)
            return placement.storage_bytes

        assert storage(pair_candidates(specs)) < storage(adjacent)

    def test_odd_middle_stays_single(self):
        specs = [TableSpec(i, rows=10 * (i + 1), dim=4) for i in range(5)]
        pairs = pair_candidates(specs)
        assert (2,) in pairs
        assert len(pairs) == 3

    def test_pairs_only(self):
        """Heuristic rule 2: products join pairs, never triples."""
        specs = [TableSpec(i, rows=10 * (i + 1), dim=4) for i in range(8)]
        assert all(len(p) <= 2 for p in pair_candidates(specs))

    def test_empty(self):
        assert pair_candidates([]) == []


class TestPlannerConfig:
    @pytest.mark.parametrize("field", ["max_candidate_rows", "max_product_bytes"])
    @pytest.mark.parametrize("value", [-1, float("nan")])
    def test_negative_cutoff_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be >= 0"):
            PlannerConfig(**{field: value})

    def test_zero_cutoffs_allowed(self):
        config = PlannerConfig(max_candidate_rows=0, max_product_bytes=0)
        plan = plan_tables(
            production_small().tables, u280_memory_system(), config=config
        )
        assert plan.merge_groups == []


class TestPlanTables:
    @pytest.fixture
    def memory(self):
        return u280_memory_system()

    @pytest.fixture
    def timing(self, memory):
        return default_timing_model(memory.axi)

    def test_never_worse_than_no_merging(self, memory, timing):
        specs = [TableSpec(i, rows=100 + 7 * i, dim=4) for i in range(40)]
        base = plan_tables(
            specs, memory, timing, PlannerConfig(enable_cartesian=False)
        )
        full = plan_tables(specs, memory, timing)
        assert full.lookup_latency_ns <= base.lookup_latency_ns + 1e-9

    def test_rule1_excludes_large_tables(self, memory, timing):
        """Large tables must never appear inside a merged group."""
        specs = [TableSpec(i, rows=200, dim=4) for i in range(10)] + [
            TableSpec(100 + i, rows=2_000_000, dim=16) for i in range(4)
        ]
        plan = plan_tables(
            specs, memory, timing, PlannerConfig(max_candidate_rows=1000)
        )
        for group in plan.merge_groups:
            for tid in group.member_ids:
                assert tid < 100

    def test_product_size_cap_respected(self, memory, timing):
        config = PlannerConfig(max_product_bytes=10_000)
        specs = [TableSpec(i, rows=1000, dim=4) for i in range(6)]
        plan = plan_tables(specs, memory, timing, config)
        for group in plan.merge_groups:
            from repro.core.cartesian import product_spec

            assert product_spec(group, {s.table_id: s for s in specs}).nbytes <= 10_000

    def test_duplicate_ids_rejected(self, memory, timing):
        specs = [TableSpec(0, rows=10, dim=4), TableSpec(0, rows=20, dim=4)]
        with pytest.raises(ValueError):
            plan_tables(specs, memory, timing)

    def test_single_table(self, memory, timing):
        plan = plan_tables([TableSpec(0, rows=100, dim=4)], memory, timing)
        assert plan.placement.num_tables_after_merge == 1
        assert plan.dram_access_rounds <= 1

    def test_quadratic_evaluation_count(self, memory, timing):
        """The outer loop evaluates O(N) allocations (Algorithm 1)."""
        n = 30
        specs = [TableSpec(i, rows=100 + i, dim=4) for i in range(n)]
        plan = plan_tables(specs, memory, timing)
        assert plan.evaluated <= n + 1


class TestProductionModelStories:
    """The Table 3 narrative, regenerated by the planner itself."""

    @pytest.fixture(scope="class")
    def memory(self):
        return u280_memory_system()

    @pytest.fixture(scope="class")
    def timing(self, memory):
        return default_timing_model(memory.axi)

    @pytest.mark.parametrize(
        "model_fn,rounds_without,rounds_with,dram_with",
        [
            (production_small, 2, 1, 34),
            (production_large, 3, 2, 68),
        ],
    )
    def test_rounds_reduced(
        self, memory, timing, model_fn, rounds_without, rounds_with, dram_with
    ):
        model = model_fn()
        base = plan_tables(
            model.tables, memory, timing, PlannerConfig(enable_cartesian=False)
        )
        cart = plan_tables(model.tables, memory, timing)
        assert base.dram_access_rounds == rounds_without
        assert cart.dram_access_rounds == rounds_with
        assert cart.placement.num_tables_in_dram == dram_with
        # Merging strictly reduces the table count.
        assert (
            cart.placement.num_tables_after_merge
            < base.placement.num_tables_after_merge
        )

    @pytest.mark.parametrize("model_fn", [production_small, production_large])
    def test_storage_overhead_is_marginal(self, memory, timing, model_fn):
        """Paper: 1.9-3.2% storage overhead; ours stays within 4%."""
        plan = plan_tables(model_fn().tables, memory, timing)
        assert 0.0 < plan.placement.storage_overhead_fraction < 0.04

    @pytest.mark.parametrize("model_fn", [production_small, production_large])
    def test_latency_improvement(self, memory, timing, model_fn):
        """Paper: Cartesian cuts lookup latency to 59-72% of HBM-only."""
        model = model_fn()
        base = plan_tables(
            model.tables, memory, timing, PlannerConfig(enable_cartesian=False)
        )
        cart = plan_tables(model.tables, memory, timing)
        ratio = cart.lookup_latency_ns / base.lookup_latency_ns
        assert 0.5 < ratio < 0.9

    def test_sub_microsecond_small_model(self, memory, timing):
        """Paper: lookups cost less than 1 us on the small model."""
        plan = plan_tables(production_small().tables, memory, timing)
        assert plan.lookup_latency_ns < 1000.0


def placement_hash(plan) -> str:
    """First 12 hex digits of the sha256 of the sorted (members, bank) pairs."""
    pairs = sorted(
        [list(group.member_ids), bank]
        for group, bank in plan.placement.bank_of.items()
    )
    return hashlib.sha256(json.dumps(pairs).encode()).hexdigest()[:12]


class TestPinnedPlacements:
    """Every production plan, pinned: a planner rewrite must not move it."""

    @pytest.mark.parametrize(
        "model,backend,max_rows,digest,evaluated,candidate_count",
        [
            ("small", "fpga", None, "c6d61b6acfce", 26, 10),
            ("large", "fpga", None, "e152cbb23ab0", 52, 45),
            ("small", "fpga", 4096, "115fe5d754ed", 47, 10),
            ("dlrm-rmc2", "fpga", None, "58ad36433d31", 1, 0),
            ("small", "fpga-compressed", 4096, "d7db82b84f5f", 47, 0),
        ],
    )
    def test_pinned(
        self, model, backend, max_rows, digest, evaluated, candidate_count
    ):
        plan = deploy_model(model, backend=backend, max_rows=max_rows).plan
        assert placement_hash(plan) == digest
        assert plan.evaluated == evaluated
        assert plan.candidate_count == candidate_count

    def test_precision_does_not_reach_the_planner(self):
        plans = [
            deploy_model("small", max_rows=4096, precision=precision).plan
            for precision in ("fixed16", "fixed32")
        ]
        assert placement_hash(plans[0]) == placement_hash(plans[1])
        assert plans[0].summary() == plans[1].summary()
