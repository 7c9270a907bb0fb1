"""Deployment planning (extension): fleets, co-location, capacity.

The paper evaluates one model on one board; production serving asks the
next questions, answerable with the same substrates:

* how many boards does a target load need, and what does the fleet cost
  versus a CPU fleet (:mod:`repro.deploy.capacity`);
* can several models share one board's hybrid memory system, and what
  does co-location do to each model's lookup latency
  (:mod:`repro.deploy.colocation`).
"""

from repro.deploy.capacity import (
    FleetPlan,
    SlaFleetPlan,
    plan_fleet_for,
    plan_fleet_sla,
)
from repro.deploy.colocation import CoLocationPlan, co_locate

__all__ = [
    "FleetPlan",
    "SlaFleetPlan",
    "plan_fleet_for",
    "plan_fleet_sla",
    "CoLocationPlan",
    "co_locate",
]
