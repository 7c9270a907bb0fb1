"""Tiered storage experiment: cold caches are a serving event (extension).

The embedding working set of a production recommender outgrows the
accelerator's fast memory ("tens of GBs", section 1), so rows live in a
HBM → DDR → host hierarchy with hot-row caching
(:mod:`repro.memory.tiers`).  Steady state is kind: Zipf traffic keeps
the hot tier's hit rate high and the effective lookup close to HBM
speed.  The danger is *transition*: when the autoscaler reacts to a
flash crowd, the nodes it adds arrive with empty caches and serve every
lookup from the slow tiers until their hot set fills.

This experiment replays a flash-crowd trace through an elastic fleet
whose serving surface carries the tier hierarchy.  The timeline shows
the spike forcing a scale-up, the fresh nodes' windows with
``cold_nodes > 0`` paying a visibly worse p99 than the warm steady
state, and the tail relaxing back once the new caches absorb the hot
set — the cold-start transient the tests assert deterministically.
"""

from __future__ import annotations

from repro.autoscale import simulate_autoscale
from repro.experiments.report import ExperimentResult
from repro.memory.tiers import scaled_tier_hierarchy
from repro.runtime import deploy_model
from repro.serving.arrivals import flash_crowd_trace
from repro.serving.popularity import PopularityModel
from repro.serving.lab import DEFAULT_SLA_MS

MODEL = "small"
BACKEND = "fpga"
POLICY = "lru"
#: Hot tier holds 5% of the working set — small enough that cache state
#: visibly moves the tail, large enough that Zipf traffic keeps it warm.
HOT_FRACTION = 0.05
#: Base load in nodes' worth of one engine's capacity; the spike is 3x.
BASE_NODES_OF_LOAD = 2.0
SPIKE_FACTOR = 3.0
WINDOWS = 16
CONTROL_INTERVAL_S = 0.05
WARM_ACCESSES = 2048
SIM_QUERIES = 512
SEED = 0


def build_surface():
    """A fresh tier-attached session (never the shared cached one).

    :func:`repro.experiments.common.session` memoises sessions across
    experiments; attaching a tier hierarchy mutates serving behaviour,
    so this experiment deploys its own instance.
    """
    surface = deploy_model(MODEL, backend=BACKEND)
    rows = sum(t.rows for t in surface.model.tables)
    hierarchy = scaled_tier_hierarchy(
        rows,
        policy=POLICY,
        hot_fraction=HOT_FRACTION,
        warm_accesses=WARM_ACCESSES,
        sim_queries=SIM_QUERIES,
    )
    return surface.attach_tiers(
        hierarchy, popularity=PopularityModel(rows=rows), seed=SEED
    )


def run() -> ExperimentResult:
    surface = build_surface()
    per_node = surface.perf().throughput_items_per_s
    memory = surface.perf().memory
    trace = flash_crowd_trace(
        BASE_NODES_OF_LOAD * per_node,
        WINDOWS * CONTROL_INTERVAL_S,
        spike_rate_per_s=SPIKE_FACTOR * BASE_NODES_OF_LOAD * per_node,
    )
    result = simulate_autoscale(
        surface,
        trace,
        slo_ms=DEFAULT_SLA_MS,
        windows=WINDOWS,
        seed=SEED,
        compare_static=False,
    )
    rows = [
        {
            "window": w.index,
            "rate_per_s": w.offered_rate_per_s,
            "nodes": w.nodes,
            "cold_nodes": w.cold_nodes,
            "p99_ms": w.p99_ms,
            "sla_attainment": w.sla_attainment,
        }
        for w in result.windows
    ]
    return ExperimentResult(
        experiment_id="tiered_storage",
        title=(
            f"Tiered storage under a flash crowd ({MODEL}/{BACKEND}, "
            f"{POLICY} hot tier at {HOT_FRACTION:.0%} of the working "
            f"set; steady-state hit rate {memory.hit_rate:.1%})"
        ),
        columns=[
            "window",
            "rate_per_s",
            "nodes",
            "cold_nodes",
            "p99_ms",
            "sla_attainment",
        ],
        rows=rows,
        notes=[
            f"steady state: hit rate {memory.hit_rate:.1%}, effective "
            f"lookup {memory.effective_lookup_ns:,.0f} ns vs "
            f"{memory.hot_lookup_ns:,.0f} ns all-HBM "
            f"({memory.lookups_per_query} lookups/query)",
            "cold_nodes counts fleet members still filling their hot "
            "tier; their windows pay the slow-tier tail until the hot "
            "set is absorbed",
            "scale-ups ride a one-window provisioning delay, then one "
            "or more cold windows — the SLA planner sizes against warm "
            "steady state, so the transient is the autoscaler's bill",
        ],
    )
