"""Heterogeneous fleet experiment: routed tiers vs homogeneous fleets.

The cluster-level counterpart of
:mod:`repro.experiments.latency_under_load` (extension): one FPGA
primary tier with GPU and CPU overflow tiers is served the same traffic
under every registered routing policy, and then compared against
homogeneous fleets of each tier at the *same node count* — the
deployment question a fleet operator actually faces.  The paper's
comparative story composed: the batched commodity tiers cannot hold the
tail at this load with three nodes, the routed mix can, and ``sla-aware``
keeps the spill to the overflow tiers only as large as the SLO forces.
"""

from __future__ import annotations

import numpy as np

from repro.cluster import Cluster, available_policies
from repro.experiments.common import session
from repro.experiments.report import ExperimentResult
from repro.serving.arrivals import poisson_arrivals
from repro.serving.lab import lab_seed
from repro.serving.lab import DEFAULT_SLA_MS

TIERS = ("fpga", "gpu", "cpu")
#: Offered load as a fraction of the cluster's summed capacity — past
#: the primary tier's own capacity, so routing genuinely decides.
UTILISATION = 0.85
DURATION_S = 0.1
SEED = 0


def run() -> ExperimentResult:
    sessions = [session("small", backend) for backend in TIERS]
    nodes = len(sessions)
    capacity = sum(
        s.perf().throughput_items_per_s for s in sessions
    )
    rate = UTILISATION * capacity
    rng = np.random.default_rng(
        lab_seed(SEED, "heterogeneous_fleet", "poisson")
    )
    arrivals = poisson_arrivals(rng, rate, DURATION_S)

    rows: list[dict[str, object]] = []
    for router in available_policies():
        cluster = Cluster(sessions, router, slo_ms=DEFAULT_SLA_MS)
        result = cluster.serve(arrivals)
        rows.append(
            {
                "fleet": cluster.backend,
                "router": router,
                "p50_ms": result.p50_ms,
                "p99_ms": result.p99_ms,
                "sla_attainment": result.sla_attainment(DEFAULT_SLA_MS),
                "fpga_share": result.tier_share("fpga"),
                "spill": result.spill_fraction("fpga"),
                "usd_per_million": result.usd_per_million_queries,
            }
        )
    for backend, sess in zip(TIERS, sessions):
        homo = Cluster([sess] * nodes, "round-robin", slo_ms=DEFAULT_SLA_MS)
        result = homo.serve(arrivals)
        rows.append(
            {
                "fleet": f"{backend} x{nodes}",
                "router": "round-robin",
                "p50_ms": result.p50_ms,
                "p99_ms": result.p99_ms,
                "sla_attainment": result.sla_attainment(DEFAULT_SLA_MS),
                "usd_per_million": result.usd_per_million_queries,
            }
        )
    return ExperimentResult(
        experiment_id="heterogeneous_fleet",
        title=(
            f"Heterogeneous fleet: {'+'.join(TIERS)} under every router vs "
            f"homogeneous {nodes}-node fleets "
            f"({rate:,.0f} queries/s, p99 SLO {DEFAULT_SLA_MS:.0f} ms)"
        ),
        columns=[
            "fleet",
            "router",
            "p50_ms",
            "p99_ms",
            "sla_attainment",
            "fpga_share",
            "spill",
            "usd_per_million",
        ],
        rows=rows,
        notes=[
            "identical arrival stream for every fleet; node count fixed "
            f"at {nodes}",
            "spill = fraction of queries routed off the fpga primary tier",
            "$/M amortises the fleet's hourly cost over achieved "
            "throughput in this window",
        ],
    )
