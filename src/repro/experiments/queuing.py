"""Queuing ablation: idealised vs simulated DRAM channel behaviour.

``repro experiments table3`` shows one systematic deviation from the
paper: our analytical lookup latencies sit below the measured hardware,
most visibly on the large model (ours 1065/868 ns vs the paper's
2260/1630 ns, without/with Cartesian products).  This experiment asks how
much of that gap controller effects explain: it replays each production
placement's per-inference access pattern through the open-page
:class:`~repro.memory.dramsim.DramChannelSim` (row conflicts,
command-queue overhead, refresh) and compares per-inference lookup
latency against the idealised model, with and without Cartesian
products.

The answer is almost none.  ``queuing_penalty`` reads 0.977-1.018 on all
four rows: the simulated controller moves lookup latency by -2.3% to
+1.8%, nowhere near the ~2x gap, which no modelled effect explains yet.

The qualitative claim being guarded: the *Cartesian benefit survives
queuing* — merging reduces simulated latency by a similar factor to the
idealised one, because the benefit comes from access-count reduction, not
from any idealisation.
"""

from __future__ import annotations

import numpy as np

from repro.core.planner import Plan
from repro.experiments.common import plan
from repro.experiments.report import ExperimentResult
from repro.memory.dramsim import DramChannelSim, DramTimingParams

INFERENCES = 400


def simulated_lookup_ns(
    p: Plan, rng: np.random.Generator, inferences: int = INFERENCES
) -> float:
    """Per-inference lookup latency with the queued channel model.

    Every DRAM bank replays ``inferences`` rounds of one random-row access
    per resident group; the per-inference latency is the slowest channel's
    mean service time (banks run concurrently, as in the ideal model).
    """
    placement = p.placement
    per_bank_groups: dict[int, list] = {}
    for group, bank_id in placement.bank_of.items():
        if placement.memory.bank(bank_id).kind.is_dram:
            per_bank_groups.setdefault(bank_id, []).append(group)

    worst = 0.0
    for groups in per_bank_groups.values():
        sim = DramChannelSim(DramTimingParams())
        specs = [placement.group_spec(g) for g in groups]
        # Address-space offsets so co-resident tables hit different rows.
        offsets = np.cumsum([0, *(s.nbytes for s in specs[:-1])])
        for _ in range(inferences):
            for spec, offset in zip(specs, offsets):
                for _ in range(spec.lookups_per_inference):
                    row = int(rng.integers(0, spec.rows))
                    sim.access(int(offset) + row * spec.vector_bytes,
                               spec.vector_bytes)
        worst = max(worst, sim.stats.total_ns / inferences)
    return worst


def run() -> ExperimentResult:
    rng = np.random.default_rng(2021)
    rows = []
    for name in ("small", "large"):
        for cartesian in (False, True):
            p = plan(name, cartesian)
            ideal = p.lookup_latency_ns
            queued = simulated_lookup_ns(p, rng)
            rows.append(
                {
                    "model": name,
                    "cartesian": "with" if cartesian else "without",
                    "ideal_ns": ideal,
                    "queued_ns": queued,
                    "queuing_penalty": queued / ideal,
                }
            )
    # Cartesian benefit under each model.
    for name in ("small", "large"):
        sub = [r for r in rows if r["model"] == name]
        without = next(r for r in sub if r["cartesian"] == "without")
        with_ = next(r for r in sub if r["cartesian"] == "with")
        with_["cartesian_benefit_ideal"] = with_["ideal_ns"] / without["ideal_ns"]
        with_["cartesian_benefit_queued"] = (
            with_["queued_ns"] / without["queued_ns"]
        )
    return ExperimentResult(
        experiment_id="queuing",
        title="DRAM queuing ablation: idealised vs simulated channels",
        columns=[
            "model",
            "cartesian",
            "ideal_ns",
            "queued_ns",
            "queuing_penalty",
            "cartesian_benefit_ideal",
            "cartesian_benefit_queued",
        ],
        rows=rows,
        notes=[
            "queued = open-page controller sim (row conflicts, queue "
            "overhead, refresh); benefit ratios must agree",
        ],
    )
