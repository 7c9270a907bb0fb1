"""Discrete-event simulation of the deeply pipelined dataflow (Figure 6).

The analytical :class:`~repro.fpga.pipeline.PipelineModel` assumes ideal
FIFO hand-off: throughput = 1 / max(II), single-item latency = sum of stage
latencies.  This module *simulates* the same pipeline event by event —
items traverse stages connected by finite-depth FIFOs, a stage stalls when
its output FIFO is full (backpressure) and starves when its input FIFO is
empty — so the analytical shortcuts can be checked rather than trusted:

* with reasonable FIFO depths the simulated steady-state throughput matches
  ``1 / max(ii)``, the first item's latency matches the latency sum, and
  the analytic bottleneck is among the stages that pace the full pipeline;
* with depth-1 FIFOs and mismatched stage IIs the simulator exposes the
  backpressure coupling the closed form ignores.

The simulator also supports per-item jitter via an item-indexed latency
callback and records per-item timelines for tracing.

Implementation: each stage is processed with simple event-time bookkeeping
rather than a full event queue — stage ``s`` can start item ``i`` when
(a) item ``i`` left stage ``s-1``, (b) stage ``s`` has initiated its
previous item at least ``ii`` earlier, and (c) the downstream FIFO has a
free slot, i.e. item ``i - depth`` has already left stage ``s+1``.  This
recurrence is exact for in-order linear pipelines and runs in
``O(items x stages)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.fpga.pipeline import PipelineModel


@dataclass(frozen=True)
class SimStage:
    """A stage instance for simulation.

    ``latency_ns`` is either a plain number (constant per-item latency)
    or an item-indexed callback ``latency(i)`` for data-dependent
    latencies (e.g. variable lookups); ``ii_ns`` is the minimum spacing
    between successive initiations.
    """

    name: str
    latency_ns: Callable[[int], float] | float
    ii_ns: float
    fifo_depth: int = 2
    #: A serial stage must finish an item before starting the next (the
    #: embedding lookup unit); its effective II is its per-item latency.
    serial: bool = False

    def __post_init__(self) -> None:
        if self.ii_ns < 0:
            raise ValueError(f"{self.name}: ii must be >= 0")
        if self.fifo_depth < 1:
            raise ValueError(f"{self.name}: fifo_depth must be >= 1")


@dataclass(frozen=True)
class SimResult:
    """Outcome of one pipeline simulation."""

    item_count: int
    #: enter[s, i] / leave[s, i]: when item i entered / left stage s.
    enter_ns: np.ndarray
    leave_ns: np.ndarray
    stage_names: tuple[str, ...]

    @property
    def makespan_ns(self) -> float:
        """Total time to drain all items."""
        return float(self.leave_ns[-1, -1])

    @property
    def first_item_latency_ns(self) -> float:
        return float(self.leave_ns[-1, 0] - self.enter_ns[0, 0])

    @property
    def steady_state_ii_ns(self) -> float:
        """Mean completion spacing over the second half of the run."""
        if self.item_count < 4:
            return self.makespan_ns / self.item_count
        done = self.leave_ns[-1]
        half = self.item_count // 2
        return float((done[-1] - done[half - 1]) / (self.item_count - half))

    def paced_stages(
        self, ii_ns: Sequence[float], rel_tol: float
    ) -> tuple[str, ...]:
        """Stages that start every item their own II after the last.

        Checked over the second half of the run, once the pipeline is
        full, with ``ii_ns`` listing each stage's II and a start gap
        matching it within ``rel_tol``.  These stages pace the pipeline:
        the bottleneck and any stage that shares its II.
        """
        start = max(self.item_count // 2 - 1, 0)
        gaps = np.diff(self.enter_ns[:, start:], axis=1)
        return tuple(
            name
            for name, ii, gap in zip(self.stage_names, ii_ns, gaps)
            if np.allclose(gap, ii, rtol=rel_tol, atol=0.0)
        )

    def stage_busy_fraction(self, s: int) -> float:
        """Fraction of the makespan stage ``s`` spent processing items."""
        busy = float(np.sum(self.leave_ns[s] - self.enter_ns[s]))
        return busy / self.makespan_ns if self.makespan_ns else 0.0


class PipelineSimulator:
    """Event-driven simulator for a linear dataflow pipeline."""

    def __init__(self, stages: Sequence[SimStage]):
        if not stages:
            raise ValueError("simulator needs at least one stage")
        self.stages = list(stages)

    @classmethod
    def from_model(
        cls, model: PipelineModel, fifo_depth: int = 2
    ) -> "PipelineSimulator":
        """Wrap an analytical pipeline with constant per-item latencies."""
        return cls(
            [
                SimStage(
                    name=s.name,
                    latency_ns=float(s.latency_ns),
                    ii_ns=s.ii_ns,
                    fifo_depth=fifo_depth,
                )
                for s in model.stages
            ]
        )

    def run(self, items: int, arrival_ii_ns: float = 0.0) -> SimResult:
        """Push ``items`` through the pipeline, item by item.

        ``arrival_ii_ns`` spaces item arrivals at the first stage (0 =
        items are always available, the saturation case).
        """
        if items <= 0:
            raise ValueError(f"items must be positive, got {items}")
        n_stages = len(self.stages)
        enter = np.zeros((n_stages, items), dtype=np.float64)
        leave = np.zeros((n_stages, items), dtype=np.float64)

        for i in range(items):
            arrival = i * arrival_ii_ns
            for s, stage in enumerate(self.stages):
                # (a) upstream completion
                ready = leave[s - 1, i] if s > 0 else arrival
                # (b) the stage's own initiation interval
                if i > 0:
                    if stage.serial:
                        ready = max(ready, leave[s, i - 1])
                    else:
                        ready = max(ready, enter[s, i - 1] + stage.ii_ns)
                # (c) downstream FIFO space: the slot frees when item
                # i - depth has been consumed by the next stage.
                if s + 1 < n_stages and i >= stage.fifo_depth:
                    ready = max(ready, enter[s + 1, i - stage.fifo_depth])
                enter[s, i] = ready
                lat = stage.latency_ns
                leave[s, i] = ready + (lat(i) if callable(lat) else lat)
        return SimResult(
            item_count=items,
            enter_ns=enter,
            leave_ns=leave,
            stage_names=tuple(s.name for s in self.stages),
        )


def validate_against_analytical(
    model: PipelineModel,
    items: int = 256,
    fifo_depth: int = 2,
    rel_tol: float = 0.02,
) -> dict[str, float]:
    """Cross-check the closed-form model with the simulator.

    Returns the relative errors; raises ``AssertionError`` when the
    analytical shortcut diverges from the simulated pipeline by more than
    ``rel_tol`` (callers in the test suite treat this as a model bug), or
    when the analytic bottleneck is not among the stages that, once the
    pipeline is full, start every item their own II after the last.
    """
    sim = PipelineSimulator.from_model(model, fifo_depth=fifo_depth).run(items)
    lat_err = abs(
        sim.first_item_latency_ns - model.single_item_latency_ns
    ) / model.single_item_latency_ns
    ii_err = abs(sim.steady_state_ii_ns - model.ii_ns) / model.ii_ns
    batch_err = abs(
        sim.makespan_ns - model.batch_latency_ns(items)
    ) / model.batch_latency_ns(items)
    errors = {"latency": lat_err, "ii": ii_err, "batch": batch_err}
    for key, err in errors.items():
        if err > rel_tol:
            raise AssertionError(
                f"analytical {key} diverges from simulation by {err:.1%} "
                f"(> {rel_tol:.1%})"
            )
    pacers = sim.paced_stages([s.ii_ns for s in model.stages], rel_tol)
    if model.bottleneck.name not in pacers:
        raise AssertionError(
            f"analytical bottleneck {model.bottleneck.name!r} does not pace "
            f"the simulated pipeline (pacers: {', '.join(pacers) or 'none'})"
        )
    return errors
