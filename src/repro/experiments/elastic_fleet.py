"""Elastic fleet experiment: autoscaling policies vs the peak-sized fleet.

The control-plane counterpart of
:mod:`repro.experiments.heterogeneous_fleet` (extension): the bundled
diurnal trace — the day/night swing production recommendation traffic
actually has — is replayed through the batched GPU tier under every
registered scaler policy (:mod:`repro.autoscale`), against the null
hypothesis a fleet operator starts from: a *static* fleet sized for the
trace's peak by :func:`repro.deploy.capacity.plan_fleet_sla`.  The
static fleet holds the 30 ms p99 SLO around the clock but pays for peak
capacity at 4 a.m.; a look-ahead scaler rides the sinusoid, keeping
SLA attainment at or above 99% for strictly fewer dollars — the
elastic-beats-static demonstration the tests assert deterministically.
"""

from __future__ import annotations

from repro.autoscale import available_scalers, compare_policies
from repro.experiments.common import session
from repro.experiments.report import ExperimentResult
from repro.serving.arrivals import diurnal_trace
from repro.serving.lab import DEFAULT_SLA_MS

BACKEND = "gpu"
#: Mean offered load in nodes' worth of one engine's capacity — big
#: enough that fleet sizes move visibly, small enough to stay legible.
MEAN_NODES_OF_LOAD = 8.0
#: Day/night swing of the bundled diurnal trace: peak 1.6x the mean,
#: trough 0.4x — the static fleet must buy the 1.6x.
AMPLITUDE = 0.6
WINDOWS = 24
CONTROL_INTERVAL_S = 0.05
SEED = 0


def run() -> ExperimentResult:
    surface = session("small", BACKEND)
    per_node = surface.perf().throughput_items_per_s
    trace = diurnal_trace(
        MEAN_NODES_OF_LOAD * per_node,
        WINDOWS * CONTROL_INTERVAL_S,
        amplitude=AMPLITUDE,
    )

    rows: list[dict[str, object]] = []
    results = compare_policies(
        surface,
        trace,
        available_scalers(),
        slo_ms=DEFAULT_SLA_MS,
        windows=WINDOWS,
        seed=SEED,
    )
    static = next(iter(results.values())).static
    for policy, result in results.items():
        rows.append(
            {
                "policy": policy,
                "mean_nodes": result.mean_nodes,
                "peak_nodes": result.peak_nodes,
                "resizes": result.scaling_actions,
                "sla_attainment": result.sla_attainment,
                "usd_per_hour": result.usd_per_hour,
                "usd_per_million": result.usd_per_million_queries,
                "usd_vs_static": (
                    result.usd_total / static.usd_total
                    if static is not None
                    else None
                ),
            }
        )
    if static is not None:
        rows.append(
            {
                "policy": "static-peak (plan_fleet_sla)",
                "mean_nodes": float(static.nodes),
                "peak_nodes": static.nodes,
                "resizes": 0,
                "sla_attainment": static.sla_attainment,
                "usd_per_hour": static.usd_per_hour,
                "usd_per_million": static.usd_per_million_queries,
                "usd_vs_static": 1.0,
            }
        )
    return ExperimentResult(
        experiment_id="elastic_fleet",
        title=(
            f"Elastic {BACKEND} fleet on the diurnal trace "
            f"({trace.mean_rate:,.0f} queries/s mean, "
            f"{trace.peak_rate:,.0f} peak; p99 SLO "
            f"{DEFAULT_SLA_MS:.0f} ms, {WINDOWS} x "
            f"{CONTROL_INTERVAL_S:g}s control windows)"
        ),
        columns=[
            "policy",
            "mean_nodes",
            "peak_nodes",
            "resizes",
            "sla_attainment",
            "usd_per_hour",
            "usd_per_million",
            "usd_vs_static",
        ],
        rows=rows,
        notes=[
            "identical trace, SLO, and seed for every policy; scale-ups "
            "ride a one-window provisioning delay",
            "static-peak = fixed fleet sized for the trace's peak rate "
            "by plan_fleet_sla (what a peak-provisioned operator buys)",
            "usd_vs_static = horizon spend relative to that static "
            "fleet; < 1 means elasticity saved money",
        ],
    )
