"""Tests for fleet planning and multi-model co-location."""

import pytest

from repro.deploy.capacity import plan_fleet_for
from repro.deploy.colocation import co_locate
from repro.experiments.common import session
from repro.memory.spec import u280_memory_system
from repro.memory.timing import default_timing_model
from repro.models.spec import dlrm_rmc2, production_small


@pytest.fixture(scope="module")
def estimates():
    """The paper's pairing: fixed16 MicroRec and the batched CPU baseline."""
    return [
        session("small", "fpga", "fixed16").perf(),
        session("small", "cpu").perf(),
    ]


class TestAcceleratorRates:
    def test_rate_helper_maps_variants_to_their_family(self):
        from repro.deploy.capacity import ACCELERATOR_RATES, accelerator_rate

        assert accelerator_rate("fpga") == ACCELERATOR_RATES["fpga"]
        assert accelerator_rate("fpga-compressed") == (
            ACCELERATOR_RATES["fpga"]
        )
        with pytest.raises(ValueError, match="no hourly rate"):
            accelerator_rate("tpu")

    def test_deployed_backends_price_from_the_table(self):
        from repro.deploy.capacity import ACCELERATOR_RATES
        from repro.runtime import deploy_model

        for backend in ("fpga", "cpu", "gpu", "nmp"):
            session = deploy_model("small", backend=backend, max_rows=64)
            assert session.usd_per_hour == ACCELERATOR_RATES[backend]


class TestPlanFleet:
    def test_fpga_fleet_smaller_and_cheaper(self, estimates):
        fleets = plan_fleet_for(500_000, estimates)
        assert fleets["fpga"].nodes < fleets["cpu"].nodes
        assert fleets["fpga"].usd_per_hour < fleets["cpu"].usd_per_hour
        assert (
            fleets["fpga"].usd_per_million_queries
            < fleets["cpu"].usd_per_million_queries
        )

    def test_capacity_meets_target_with_headroom(self, estimates):
        fleets = plan_fleet_for(500_000, estimates, headroom=0.7)
        for fleet in fleets.values():
            assert fleet.fleet_qps >= fleet.target_qps
            assert fleet.utilisation <= 1.0

    def test_latency_gap(self, estimates):
        fleets = plan_fleet_for(100_000, estimates)
        assert fleets["fpga"].latency_ms < 0.05
        assert fleets["cpu"].latency_ms > 10.0

    def test_tiny_target_needs_one_node(self, estimates):
        fleets = plan_fleet_for(10, estimates)
        assert fleets["fpga"].nodes == 1
        assert fleets["cpu"].nodes == 1

    def test_scaling_linear(self, estimates):
        one = plan_fleet_for(200_000, estimates)["fpga"].nodes
        five = plan_fleet_for(1_000_000, estimates)["fpga"].nodes
        assert 4 * one <= five <= 6 * one

    def test_validation(self, estimates):
        with pytest.raises(ValueError):
            plan_fleet_for(0, estimates)
        with pytest.raises(ValueError):
            plan_fleet_for(100, estimates, headroom=0.0)


class TestCoLocate:
    @pytest.fixture(scope="class")
    def setup(self):
        memory = u280_memory_system()
        timing = default_timing_model(memory.axi)
        models = [
            production_small(),
            dlrm_rmc2(num_tables=8, dim=16, rows=100_000),
        ]
        return co_locate(models, memory, timing), timing

    def test_joint_placement_feasible(self, setup):
        plan, _ = setup
        plan.joint.placement.validate()

    def test_groups_never_span_models(self, setup):
        plan, _ = setup
        for name in ("production-small", "dlrm-rmc2-t8-d16"):
            plan.per_model_placement(name)  # raises if a group spans

    def test_all_tables_placed(self, setup):
        plan, _ = setup
        placed = {
            tid
            for g in plan.joint.placement.groups
            for tid in g.member_ids
        }
        expected = set()
        for m in plan.models:
            expected |= plan.model_table_ids(m.name)
        assert placed == expected

    def test_per_model_latency_at_least_solo(self, setup):
        """Sharing channels can only slow a model down (or tie)."""
        plan, timing = setup
        from repro.core.planner import plan_tables

        memory = u280_memory_system()
        solo = plan_tables(production_small().tables, memory, timing)
        co = plan.model_lookup_latency_ns("production-small", timing)
        assert co >= solo.lookup_latency_ns - 1e-9

    def test_duplicate_names_rejected(self):
        memory = u280_memory_system()
        with pytest.raises(ValueError):
            co_locate([production_small(), production_small()], memory)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            co_locate([], u280_memory_system())
