"""Serving/SLA experiment: tail latency vs offered load (extension).

Quantifies section 1's motivation and section 4.1's design claim with a
queueing simulation: the batched CPU engine meets a 30 ms p99 SLA only up
to a fraction of its raw batch throughput (batch assembly wait + batched
execution), while the item-by-item MicroRec pipeline holds microsecond
tails until it saturates near its steady-state throughput.  Both engines
are swept by the serving lab (:func:`repro.serving.lab.load_sweep`) over
the same offered rates.
"""

from __future__ import annotations

from repro.experiments.common import session
from repro.experiments.report import ExperimentResult
from repro.serving.lab import DEFAULT_SLA_MS, load_sweep

RATES = (1_000, 10_000, 30_000, 60_000, 120_000, 240_000, 280_000)


def run() -> ExperimentResult:
    sweep = {"rates": RATES, "duration_s": 0.5, "seed": 7}
    curves = {
        "cpu-batched": load_sweep(
            session("small", "cpu"),
            batch_size=256,
            batch_timeout_ms=5.0,
            **sweep,
        ),
        "fpga-pipelined": load_sweep(
            session("small", "fpga", "fixed16"), **sweep
        ),
    }

    # Rates and capacities are whole queries/s; as ints they render
    # without the thousands separator floats get.
    rows: list[dict[str, object]] = [
        {
            "engine": engine,
            "rate_per_s": int(point.rate_per_s),
            "p50_ms": point.p50_ms,
            "p99_ms": point.p99_ms,
            "meets_sla": point.meets_slo,
        }
        for engine, curve in curves.items()
        for point in curve.points
    ]
    rows.append(
        {
            "engine": "sla-capacity",
            "rate_per_s": None,
            "cpu_capacity_per_s": int(
                curves["cpu-batched"].sla_capacity_per_s
            ),
            "fpga_capacity_per_s": int(
                curves["fpga-pipelined"].sla_capacity_per_s
            ),
        }
    )
    return ExperimentResult(
        experiment_id="serving_sla",
        title=f"Tail latency vs load (p99 SLA = {DEFAULT_SLA_MS:.0f} ms, "
        "small model, fixed16)",
        columns=[
            "engine",
            "rate_per_s",
            "p50_ms",
            "p99_ms",
            "meets_sla",
            "cpu_capacity_per_s",
            "fpga_capacity_per_s",
        ],
        rows=rows,
        notes=[
            "CPU: batch 256 + 5 ms assembly timeout; FPGA: item-by-item "
            "pipeline (section 4.1)",
        ],
    )
