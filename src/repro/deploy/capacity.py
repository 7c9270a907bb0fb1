"""Fleet capacity planning: boards (or CPU servers) for a target load.

Engines replicate trivially — each board holds a full model copy (the
paper's models fit one U280's 40 GB of DRAM) and serves an independent
query stream, so fleet throughput scales linearly while per-query latency
stays the single-board number.  The planner sizes both an FPGA fleet and a
CPU fleet for a target queries-per-second with headroom, and prices them
with the appendix's AWS rates.

Two sizing disciplines live here: :func:`plan_fleet_for` buys throughput
headroom only, while :func:`plan_fleet_sla` replays the arrival pattern
through each engine's queueing model (:mod:`repro.serving`) and grows the
fleet until the simulated per-node tail latency meets a latency SLO —
the paper's tail-latency-at-cost comparison end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.serving.arrivals import (
    RateTrace,
    arrivals_for,
    check_positive,
    trace_arrivals,
)

if TYPE_CHECKING:  # avoid a runtime import cycle with repro.runtime
    from repro.runtime.perf import PerfEstimate
    from repro.runtime.session import Session

#: Hourly node rates, one per accelerator family, in a single table so
#: backends, cluster costing, and the autoscaling control plane all price
#: from the same numbers:
#:
#: * ``fpga`` — appendix AWS rate: f1.2xlarge (one U280-class board);
#: * ``cpu`` — the appendix's CPU baseline server;
#: * ``gpu`` — p3.2xlarge-class rate: one V100 inference server (the GPU
#:   the DeepRecSys observations modelled in ``repro.baselines.gpu``
#:   describe);
#: * ``nmp`` — hypothetical NMP-DIMM server: the CPU baseline server plus
#:   a ~20 % memory-subsystem premium.  TensorDIMM/RecNMP never shipped —
#:   the paper notes such DRAM "would take years to put in production" —
#:   so this rate prices the proposal's own assumption of commodity
#:   servers with upgraded DIMMs.
ACCELERATOR_RATES: dict[str, float] = {
    "fpga": 1.65,
    "cpu": 1.82,
    "gpu": 3.06,
    "nmp": 2.18,
}


def accelerator_rate(backend: str) -> float:
    """Hourly node rate for a backend name.

    Variant backends price as their base family (``fpga-compressed``
    runs on the same f1.2xlarge board as ``fpga``); unknown names raise
    a :class:`ValueError` listing the priced families.
    """
    family = backend.split("-", 1)[0]
    try:
        return ACCELERATOR_RATES[family]
    except KeyError:
        raise ValueError(
            f"no hourly rate for backend {backend!r}; priced families: "
            f"{', '.join(sorted(ACCELERATOR_RATES))}"
        ) from None


@dataclass(frozen=True)
class FleetPlan:
    """Sizing and cost of one engine fleet for a target load."""

    engine: str
    target_qps: float
    per_node_qps: float
    nodes: int
    node_usd_per_hour: float
    latency_ms: float  # per-query serving latency on one node

    @property
    def fleet_qps(self) -> float:
        return self.nodes * self.per_node_qps

    @property
    def usd_per_hour(self) -> float:
        return self.nodes * self.node_usd_per_hour

    @property
    def usd_per_million_queries(self) -> float:
        return self.usd_per_hour / 3600.0 / self.target_qps * 1e6

    @property
    def utilisation(self) -> float:
        return self.target_qps / self.fleet_qps

    def as_dict(self) -> dict[str, object]:
        """JSON-serialisable summary (CLI ``--json`` output)."""
        return {
            "engine": self.engine,
            "target_qps": self.target_qps,
            "nodes": self.nodes,
            "per_node_qps": self.per_node_qps,
            "fleet_qps": self.fleet_qps,
            "usd_per_hour": self.usd_per_hour,
            "usd_per_million_queries": self.usd_per_million_queries,
            "latency_ms": self.latency_ms,
            "utilisation": self.utilisation,
        }


def plan_fleet_for(
    target_qps: float,
    estimates: Iterable["PerfEstimate"],
    headroom: float = 0.7,
) -> dict[str, FleetPlan]:
    """Size one fleet per backend performance estimate.

    Backend-agnostic: any :class:`~repro.runtime.perf.PerfEstimate` —
    whatever engine produced it — sizes a fleet from its sustained
    per-node throughput, serving-point latency, and node cost.  Pass
    several sessions' ``perf()`` to compare engines for one target
    (the paper's FPGA-vs-CPU fleet comparison).  ``headroom`` caps
    per-node utilisation (serving fleets never run at 100%); node counts
    are the minimum satisfying it.  Returns plans keyed by backend name.
    """
    check_positive("target_qps", target_qps)
    if not 0 < headroom <= 1:
        raise ValueError(f"headroom must be in (0, 1], got {headroom}")
    fleets: dict[str, FleetPlan] = {}
    for est in estimates:
        if est.backend in fleets:
            raise ValueError(f"duplicate backend {est.backend!r}")
        node_qps = est.throughput_items_per_s * headroom
        fleets[est.backend] = FleetPlan(
            engine=est.backend,
            target_qps=target_qps,
            per_node_qps=node_qps,
            nodes=max(1, math.ceil(target_qps / node_qps)),
            node_usd_per_hour=est.usd_per_hour,
            latency_ms=est.serving_latency_ms,
        )
    return fleets


@dataclass(frozen=True)
class SlaFleetPlan(FleetPlan):
    """A fleet sized so simulated per-node load meets a latency SLO.

    Extends :class:`FleetPlan` with the SLO and the simulated evidence:
    ``throughput_only_nodes`` is what headroom-only sizing
    (:func:`plan_fleet_for`) would buy, ``nodes`` what the SLO actually
    requires; when they differ, the SLO — not raw throughput — is the
    binding constraint (``slo_bound``), which is exactly the paper's
    point about batched engines under tail-latency targets.
    """

    slo_ms: float
    slo_percentile: float
    process: str
    throughput_only_nodes: int
    #: Simulated per-node tail latency (ms, at ``slo_percentile``) at the
    #: chosen fleet size.
    observed_tail_ms: float
    #: Fraction of simulated queries within the SLO at the chosen size.
    sla_attainment: float

    @property
    def slo_bound(self) -> bool:
        """True when the SLO forced more nodes than throughput sizing."""
        return self.nodes > self.throughput_only_nodes

    def as_dict(self) -> dict[str, object]:
        out = super().as_dict()
        out.update(
            {
                "slo_ms": self.slo_ms,
                "slo_percentile": self.slo_percentile,
                "process": self.process,
                "throughput_only_nodes": self.throughput_only_nodes,
                "observed_tail_ms": self.observed_tail_ms,
                "sla_attainment": self.sla_attainment,
                "slo_bound": self.slo_bound,
            }
        )
        return out


def _simulate_node(
    session: "Session",
    rate_per_s: float,
    *,
    process: str,
    trace: RateTrace | None,
    duration_s: float,
    slo_ms: float,
    slo_percentile: float,
    seed: int,
    nodes: int,
) -> tuple[float, float]:
    """Simulated (tail_ms, attainment) of one node at ``rate_per_s``.

    With a ``trace``, the aggregate shape is rescaled so its mean equals
    the per-node rate (Poisson splitting across identical nodes preserves
    the shape); otherwise ``process`` names the arrival family.  An empty
    realised stream means the per-node load is vanishingly small — the
    latency floor is then a lone query, which still pays the engine's
    unloaded cost (batch-assembly timeout + execution on the batched
    servers), so an SLO below that floor correctly never "meets".
    """
    from repro.serving.lab import lab_seed

    rng = np.random.default_rng(
        lab_seed(seed, session.backend, process, "fleet", nodes)
    )
    if trace is not None:
        arrivals = trace_arrivals(rng, trace.with_mean(rate_per_s))
    else:
        arrivals = arrivals_for(process, rng, rate_per_s, duration_s)
    if arrivals.size == 0:
        arrivals = np.zeros(1)
    result = session.serve(arrivals)
    return result.percentile_ms(slo_percentile), result.sla_attainment(slo_ms)


def plan_fleet_sla(
    target_qps: float,
    session: "Session",
    *,
    slo_ms: float,
    slo_percentile: float = 99.0,
    process: str = "poisson",
    trace: RateTrace | None = None,
    duration_s: float = 0.2,
    headroom: float = 0.7,
    seed: int = 0,
    max_nodes: int = 1_000_000,
) -> SlaFleetPlan:
    """Size a fleet so each node's simulated tail latency meets the SLO.

    Throughput-headroom sizing (:func:`plan_fleet_for`) answers "can the
    fleet keep up"; this answers the production question — "does every
    query come back within the SLO under the *actual arrival pattern*".
    Starting from the throughput-only node count, the per-node stream
    (``target_qps / nodes``, shaped by ``process`` or an explicit
    ``trace``) is replayed through the session's queueing model; if the
    ``slo_percentile`` latency misses ``slo_ms``, the fleet grows
    (exponential probe, then binary search).  Tail latency is monotone
    in per-node load *in expectation* for both server families, but
    each probed size replays its own deterministically seeded stream,
    so right at the threshold the located boundary is a stochastic
    estimate — the returned size is minimal up to that simulation
    noise, and its own simulated stream always meets the SLO.  The
    result never has fewer nodes than the throughput plan.

    With a tier hierarchy attached to the session (``attach_tiers``),
    every probe serves at *warm* steady state — ``serve``'s default
    warm-up — so the plan sizes for the fleet's long-run behaviour; the
    cold-start transient after a scale-up is the autoscaler's problem
    (:func:`repro.autoscale.simulate_autoscale` charges it per window).

    Raises :class:`ValueError` when the SLO is unattainable at any fleet
    size under ``max_nodes`` (e.g. an SLO below the engine's unloaded
    batch-assembly + execution floor).
    """
    perf = session.perf()
    base = plan_fleet_for(target_qps, [perf], headroom=headroom)[
        session.backend
    ]
    check_positive("slo_ms", slo_ms)

    def probe(nodes: int) -> tuple[float, float]:
        return _simulate_node(
            session,
            target_qps / nodes,
            process=process,
            trace=trace,
            duration_s=duration_s,
            slo_ms=slo_ms,
            slo_percentile=slo_percentile,
            seed=seed,
            nodes=nodes,
        )

    nodes = base.nodes
    tail, attainment = probe(nodes)
    if tail > slo_ms:
        lo = nodes  # highest known-failing size
        hi = nodes
        while True:
            if hi >= max_nodes:
                raise ValueError(
                    f"{session.backend}: p{slo_percentile:g} latency "
                    f"{tail:.2f} ms still misses the {slo_ms:g} ms SLO at "
                    f"{max_nodes} nodes — the SLO is below this engine's "
                    "latency floor"
                )
            hi = min(max_nodes, hi * 2)
            tail, attainment = probe(hi)
            if tail <= slo_ms:
                break
            lo = hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            mid_tail, mid_attainment = probe(mid)
            if mid_tail <= slo_ms:
                hi, tail, attainment = mid, mid_tail, mid_attainment
            else:
                lo = mid
        nodes = hi
    return SlaFleetPlan(
        engine=base.engine,
        target_qps=target_qps,
        per_node_qps=base.per_node_qps,
        nodes=nodes,
        node_usd_per_hour=base.node_usd_per_hour,
        latency_ms=base.latency_ms,
        slo_ms=slo_ms,
        slo_percentile=slo_percentile,
        process=process,
        throughput_only_nodes=base.nodes,
        observed_tail_ms=tail,
        sla_attainment=attainment,
    )

