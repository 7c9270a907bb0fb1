"""Online-serving substrate: arrivals, queueing, SLA, and the serving lab.

Quantifies the paper's serving argument (sections 1, 2.3, 4.1): a CPU
engine must batch to reach throughput, but batching inflates latency and
SLAs of tens of milliseconds cap the usable batch size; MicroRec processes
items one by one through a deep pipeline, so its latency is microseconds at
*any* load below capacity.

Layers, bottom up:

* :mod:`repro.serving.arrivals` — steady Poisson/uniform generators and
  time-varying :class:`RateTrace` s (diurnal, MMPP-style bursty, flash
  crowd) realised by thinning;
* :mod:`repro.serving.queueing` — the batched and pipelined server
  simulators and the :class:`ServingResult` latency distribution;
* :mod:`repro.serving.lab` — the trace-driven serving lab: latency-vs-load
  :class:`LoadCurve` s (p50/p95/p99/p99.9, SLA attainment, SLA capacity,
  knee detection) for any deployed :class:`~repro.runtime.session.Session`,
  judged against :data:`DEFAULT_SLA_MS` by default.
"""

from repro.serving.arrivals import (
    ARRIVAL_PROCESSES,
    TRACE_SHAPES,
    RateSegment,
    RateTrace,
    arrivals_for,
    bursty_trace,
    diurnal_trace,
    flash_crowd_trace,
    poisson_arrivals,
    segment,
    trace_arrivals,
    trace_for,
    uniform_arrivals,
)
from repro.serving.lab import (
    DEFAULT_PROCESSES,
    DEFAULT_SLA_MS,
    DEFAULT_UTILISATIONS,
    LoadCurve,
    LoadPoint,
    lab_seed,
    load_sweep,
    session_lab,
    tiering_lab,
)
from repro.serving.popularity import DEFAULT_ALPHA, PopularityModel
from repro.serving.queueing import (
    BatchedServerSim,
    PipelineServerSim,
    ServingResult,
)

__all__ = [
    "ARRIVAL_PROCESSES",
    "TRACE_SHAPES",
    "RateSegment",
    "RateTrace",
    "arrivals_for",
    "trace_for",
    "bursty_trace",
    "diurnal_trace",
    "flash_crowd_trace",
    "poisson_arrivals",
    "segment",
    "trace_arrivals",
    "uniform_arrivals",
    "DEFAULT_PROCESSES",
    "DEFAULT_SLA_MS",
    "DEFAULT_UTILISATIONS",
    "LoadCurve",
    "LoadPoint",
    "lab_seed",
    "load_sweep",
    "session_lab",
    "tiering_lab",
    "DEFAULT_ALPHA",
    "PopularityModel",
    "BatchedServerSim",
    "PipelineServerSim",
    "ServingResult",
]
