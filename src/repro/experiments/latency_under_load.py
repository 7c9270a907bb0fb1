"""Latency-under-load experiment: the serving lab across backends.

The trace-driven counterpart of :mod:`repro.experiments.serving_sla`
(extension): every modelled backend — MicroRec's pipeline, the batched
CPU and GPU stacks, the near-memory baseline — is driven through the
serving lab (:mod:`repro.serving.lab`) under steady Poisson, diurnal,
and MMPP-style bursty arrivals, and the 30 ms p99 SLO is then priced
into fleets two ways: throughput-headroom sizing versus SLA-aware sizing
(:func:`repro.deploy.capacity.plan_fleet_sla`).  The paper's claim in
one table: batched engines lose SLA capacity (and buy extra nodes) as
the arrival process roughens, while the pipelined engines barely move.
"""

from __future__ import annotations

from repro.deploy.capacity import plan_fleet_sla
from repro.experiments.common import session
from repro.experiments.report import ExperimentResult
from repro.serving.lab import load_sweep
from repro.serving.lab import DEFAULT_SLA_MS

#: ``fpga-compressed`` shares the fpga timing model, so the lab sweeps
#: the four distinct serving architectures.
BACKENDS = ("fpga", "cpu", "gpu", "nmp")
PROCESSES = ("poisson", "diurnal", "bursty")
UTILISATIONS = (0.25, 0.5, 0.8, 1.05)
TARGET_QPS = 1_000_000.0
DURATION_S = 0.1


def run() -> ExperimentResult:
    rows: list[dict[str, object]] = []
    for backend in BACKENDS:
        sess = session("small", backend)
        for process in PROCESSES:
            curve = load_sweep(
                sess,
                process=process,
                utilisations=UTILISATIONS,
                duration_s=DURATION_S,
                slo_ms=DEFAULT_SLA_MS,
                seed=0,
            )
            for point in curve.points:
                rows.append(
                    {
                        "engine": backend,
                        "process": process,
                        "rate_per_s": point.rate_per_s,
                        "utilisation": point.utilisation,
                        "p50_ms": point.p50_ms,
                        "p99_ms": point.p99_ms,
                        "sla_attainment": point.sla_attainment,
                    }
                )
            rows.append(
                {
                    "engine": backend,
                    "process": process,
                    "sla_capacity_per_s": curve.sla_capacity_per_s,
                    "knee_rate_per_s": curve.knee_rate_per_s,
                }
            )
        fleet = sess.fleet(TARGET_QPS)
        try:
            sla_fleet = plan_fleet_sla(
                TARGET_QPS,
                sess,
                slo_ms=DEFAULT_SLA_MS,
                duration_s=DURATION_S,
                seed=0,
            )
            sla_row = {
                "sla_nodes": sla_fleet.nodes,
                "slo_bound": sla_fleet.slo_bound,
                "usd_per_hour": sla_fleet.usd_per_hour,
            }
        except ValueError:
            # SLO below this engine's latency floor: unattainable at any
            # fleet size — a lab result in its own right, not a crash.
            sla_row = {"sla_nodes": None, "slo_bound": None,
                       "usd_per_hour": None}
        rows.append(
            {
                "engine": backend,
                "process": "fleet@1Mqps",
                "throughput_nodes": fleet.nodes,
                **sla_row,
            }
        )
    return ExperimentResult(
        experiment_id="latency_under_load",
        title=f"Serving lab: tail latency under load (p99 SLO = "
        f"{DEFAULT_SLA_MS:.0f} ms, small model)",
        columns=[
            "engine",
            "process",
            "rate_per_s",
            "utilisation",
            "p50_ms",
            "p99_ms",
            "sla_attainment",
            "sla_capacity_per_s",
            "knee_rate_per_s",
            "throughput_nodes",
            "sla_nodes",
            "slo_bound",
            "usd_per_hour",
        ],
        rows=rows,
        notes=[
            "utilisation = offered rate / per-node sustained throughput; "
            "SLA-aware fleets simulate per-node load (plan_fleet_sla)",
            "fpga-compressed shares the fpga timing model and is omitted",
        ],
    )
