"""The experiment registry behind ``repro experiments``.

Each entry regenerates one table or figure of the paper (or one
extension) as an :class:`~repro.experiments.report.ExperimentResult`;
:func:`render_one` renders it as the verb prints it.  Every experiment
is deterministic, so the verb's output is byte-identical across runs.
"""

from __future__ import annotations

from typing import Callable

from repro.experiments import (
    cache_study,
    compression,
    cost,
    elastic_fleet,
    figure3,
    figure7,
    heterogeneous_fleet,
    latency_under_load,
    quantization,
    queuing,
    related_work,
    serving_sla,
    sharded_fleet,
    table2,
    table3,
    table4,
    table5,
    table6,
    tiered_storage,
    trace_scale,
)
from repro.experiments.report import ExperimentResult, render_table

EXPERIMENTS: dict[str, Callable[[], ExperimentResult]] = {
    "figure3": figure3.run,
    "table2": table2.run,
    "table3": table3.run,
    "table4": table4.run,
    "table5": table5.run,
    "figure7": figure7.run,
    "table6": table6.run,
    "cost": cost.run,
    "queuing": queuing.run,
    "serving_sla": serving_sla.run,
    "latency_under_load": latency_under_load.run,
    "heterogeneous_fleet": heterogeneous_fleet.run,
    "elastic_fleet": elastic_fleet.run,
    "sharded_fleet": sharded_fleet.run,
    "quantization": quantization.run,
    "related_work": related_work.run,
    "compression": compression.run,
    "cache_study": cache_study.run,
    "tiered_storage": tiered_storage.run,
    "trace_scale": trace_scale.run,
}


#: Figures that get an ASCII chart in addition to their data table:
#: experiment -> (group_by, x_key, y_key, log_x, title).
CHARTS = {
    "figure7": (
        "model",
        "rounds",
        "relative",
        False,
        "Figure 7: relative throughput vs lookup rounds",
    ),
    "serving_sla": (
        "engine",
        "rate_per_s",
        "p99_ms",
        True,
        "Serving: p99 latency (ms) vs offered load (queries/s)",
    ),
    "tiered_storage": (
        "nodes",
        "window",
        "p99_ms",
        False,
        "Tiered storage: p99 (ms) vs control window (series = fleet size)",
    ),
}


def render_one(result: ExperimentResult) -> str:
    """Data table plus, for figure-style experiments, an ASCII chart."""
    from repro.experiments.plotting import ascii_chart, series_from_rows

    text = render_table(result)
    chart_spec = CHARTS.get(result.experiment_id)
    if chart_spec:
        group_by, x_key, y_key, log_x, title = chart_spec
        series = series_from_rows(result.rows, group_by, x_key, y_key)
        if series:
            text += "\n\n" + ascii_chart(series, title=title, log_x=log_x)
    return text

