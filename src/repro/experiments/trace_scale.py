"""Trace-scale experiment: a ten-million-query trace, end to end in seconds.

The stress test of the vectorised simulation hot paths (extension): one
diurnal :class:`~repro.serving.arrivals.RateTrace` is realised as ~10
million arrival timestamps and replayed through every serving layer —
the pipelined FPGA queueing model, the batched CPU queueing model, and a
routed three-tier cluster — with the wall clock of each phase reported
next to its latency statistics.  Before the running-maximum / batch-major
rewrites this replay took minutes of interpreter time; the vectorised
paths finish the whole table in seconds, which is what makes the
web-scale sweeps (section 5's million-QPS operating points) tractable on
a laptop.

Latency statistics are deterministic under the fixed seed; the ``wall_s``
and ``million_per_s`` columns are measured and vary run to run (the test
suite asserts only a generous end-to-end ceiling — the precise runtime
gate lives in the CI perf job's wall-clock budgets).
"""

from __future__ import annotations

import time

import numpy as np

from repro.experiments.common import session
from repro.experiments.report import ExperimentResult
from repro.serving.arrivals import diurnal_trace, trace_arrivals
from repro.serving.lab import DEFAULT_SLA_MS

#: Expected arrival count of the realised trace (Poisson, so the actual
#: draw lands within a fraction of a percent).
TARGET_QUERIES = 10_000_000
#: Mean offered load as a fraction of each engine's sustained capacity;
#: with the diurnal peak at 1.6x the mean this keeps the peak at 0.8x
#: capacity — loaded enough to queue, stable enough to finish.
MEAN_UTILISATION = 0.5
#: Tiers of the routed-cluster phase (one replica each).
CLUSTER_TIERS = ("fpga", "gpu", "cpu")
ROUTER = "sla-aware"
SEED = 0


def _row(
    stage: str,
    queries: int,
    wall_s: float,
    result: object | None = None,
) -> dict[str, object]:
    row: dict[str, object] = {
        "stage": stage,
        "queries": queries,
        "wall_s": wall_s,
        "million_per_s": queries / wall_s / 1e6 if wall_s > 0 else None,
        "p50_ms": None,
        "p99_ms": None,
        "sla_attainment": None,
    }
    if result is not None:
        row["p50_ms"] = result.p50_ms
        row["p99_ms"] = result.p99_ms
        row["sla_attainment"] = result.sla_attainment(DEFAULT_SLA_MS)
    return row


def run() -> ExperimentResult:
    fpga = session("small", "fpga")
    cpu = session("small", "cpu")
    rate = MEAN_UTILISATION * fpga.perf().throughput_items_per_s
    duration_s = TARGET_QUERIES / rate

    rows: list[dict[str, object]] = []

    started = time.perf_counter()  # repro-lint: noqa[RPR002] -- this experiment measures real wall-clock throughput; elapsed seconds are its payload
    trace = diurnal_trace(rate, duration_s)
    arrivals = trace_arrivals(np.random.default_rng(SEED), trace)
    n = int(arrivals.size)
    elapsed = time.perf_counter() - started  # repro-lint: noqa[RPR002] -- this experiment measures real wall-clock throughput; elapsed seconds are its payload
    rows.append(_row("generate (diurnal thinning)", n, elapsed))

    started = time.perf_counter()  # repro-lint: noqa[RPR002] -- this experiment measures real wall-clock throughput; elapsed seconds are its payload
    served = fpga.serve(arrivals)
    elapsed = time.perf_counter() - started  # repro-lint: noqa[RPR002] -- this experiment measures real wall-clock throughput; elapsed seconds are its payload
    rows.append(
        _row("pipelined serve (fpga)", n, elapsed, served)
    )

    # The batched CPU engine sustains a fraction of the FPGA's rate;
    # stretching the timestamps rescales the same diurnal stream to the
    # same relative load without paying for a second 10M-sample draw.
    started = time.perf_counter()  # repro-lint: noqa[RPR002] -- this experiment measures real wall-clock throughput; elapsed seconds are its payload
    cpu_rate = MEAN_UTILISATION * cpu.perf().throughput_items_per_s
    served = cpu.serve(arrivals * (rate / cpu_rate))
    elapsed = time.perf_counter() - started  # repro-lint: noqa[RPR002] -- this experiment measures real wall-clock throughput; elapsed seconds are its payload
    rows.append(
        _row("batched serve (cpu)", n, elapsed, served)
    )

    started = time.perf_counter()  # repro-lint: noqa[RPR002] -- this experiment measures real wall-clock throughput; elapsed seconds are its payload
    from repro.cluster import ReplicaSpec, deploy_cluster

    cluster = deploy_cluster(
        [ReplicaSpec(model="small", backend=b) for b in CLUSTER_TIERS],
        router=ROUTER,
        slo_ms=DEFAULT_SLA_MS,
        seed=SEED,
    )
    cluster_rate = (
        MEAN_UTILISATION * cluster.perf().throughput_items_per_s
    )
    served = cluster.serve(arrivals * (rate / cluster_rate))
    elapsed = time.perf_counter() - started  # repro-lint: noqa[RPR002] -- this experiment measures real wall-clock throughput; elapsed seconds are its payload
    rows.append(
        _row(
            f"routed cluster ({'+'.join(CLUSTER_TIERS)}, {ROUTER})",
            n,
            elapsed,
            served,
        )
    )

    return ExperimentResult(
        experiment_id="trace_scale",
        title=(
            f"~{TARGET_QUERIES / 1e6:.0f}M-query diurnal trace replayed "
            f"through every serving layer (mean load "
            f"{MEAN_UTILISATION:.0%} of capacity, p99 SLO "
            f"{DEFAULT_SLA_MS:.0f} ms)"
        ),
        columns=[
            "stage",
            "queries",
            "wall_s",
            "million_per_s",
            "p50_ms",
            "p99_ms",
            "sla_attainment",
        ],
        rows=rows,
        notes=[
            "one fixed-seed arrival stream, rescaled in time so every "
            "engine sees the same relative load",
            "wall_s / million_per_s are measured on this machine; "
            "latency columns are deterministic under the seed",
            "pre-vectorisation this table took minutes of interpreter "
            "time — the hot paths are the routed virtual queues, the "
            "pipelined server's running maximum, and the batch-major CPU "
            "loop",
        ],
    )
