"""Scaler policies: how many nodes should the elastic fleet run next?

A *scaler policy* looks at what just happened in one control window of an
autoscaling simulation (:mod:`repro.autoscale.simulator`) and answers
with a desired fleet size.  Policies register under short names in a
:class:`repro.registry.Registry`: the simulator, the CLI, the bench
runner, and the experiments all select scalers by name.

Five policies ship by default:

``static``
    Never changes the fleet — the fixed-provisioning null hypothesis
    every elastic policy is compared against.
``reactive-utilisation``
    Classic threshold scaling with hysteresis: when the window's
    utilisation leaves a dead band, resize towards a target utilisation;
    inside the band, hold.  The band (not a single threshold) is what
    prevents flapping around the set point.
``queue-depth``
    Scales on backlog rather than rate: the window's mean number of
    queries in the system per node (Little's law, ``L = lambda * W``).
    Queue depth reacts to *service-time* pressure that utilisation alone
    misses — a batched engine near its knee piles up queue depth while
    its utilisation still looks tolerable.
``predictive-trace``
    Looks ahead along the offered-load trace's own rate function far
    enough to cover the provisioning delay, and sizes for the *coming*
    peak instead of the past window — the policy a provider with a
    day-ahead forecast runs.  Scale-ups land before the ramp needs them.
``sla-feedback``
    Closes the loop on the measured objective itself: scale up
    multiplicatively while the window's observed tail latency misses the
    SLO, creep back down one node at a time while the tail sits well
    inside it.  Needs no model of the engine at all — only the SLO.

All policies are deterministic pure functions of the observation, so an
autoscaling simulation is byte-reproducible for a fixed seed (the CLI's
``--json`` determinism guarantee, checked in CI, relies on this).

Third-party scalers plug in with::

    from repro.autoscale import register_scaler

    class MyScaler:
        name = "my-scaler"

        def desired_nodes(self, obs):
            ...  # return a target fleet size (the simulator clamps it)

    register_scaler(MyScaler())
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.registry import Registry, UnknownNameError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.arrivals import RateTrace


class UnknownScalerError(UnknownNameError):
    """Raised when a scaler-policy name is not in the registry."""


@dataclass(frozen=True)
class AutoscaleObservation:
    """What a scaler policy may know after one served control window.

    A static snapshot — policies react to published telemetry (offered
    rate, windowed latency percentiles, queue depth) plus the control
    plane's own configuration, never to simulator internals.
    """

    #: Index of the window just served (0-based).
    window: int
    #: Start time of that window (seconds into the trace).
    t_s: float
    #: Length of the window (seconds).
    interval_s: float
    #: Nodes that actively served the window.
    nodes: int
    #: Nodes already provisioning (ordered, not yet serving).
    pending_nodes: int
    #: Mean aggregate offered rate over the window (queries/s).
    offered_rate_per_s: float
    #: Offered rate over the fleet's sustained capacity
    #: (``nodes * per_node_qps``).
    utilisation: float
    #: Mean queries in the system per node over the window (Little's
    #: law on the windowed mean latency).
    queue_depth: float
    #: Windowed mean latency (ms).
    mean_ms: float
    #: Windowed latency at the judged percentile (ms).
    tail_ms: float
    #: Fraction of the window's queries answered within the SLO.
    sla_attainment: float
    slo_ms: float
    slo_percentile: float
    #: Sustained per-node throughput (queries/s).
    per_node_qps: float
    #: Unloaded per-query latency at the serving operating point (ms) —
    #: the engine's intrinsic service time, before any queueing.
    service_ms: float
    min_nodes: int
    max_nodes: int
    #: How long a scale-up takes to come online (seconds).
    provision_delay_s: float
    #: The offered-load trace being replayed (the ``predictive-trace``
    #: policy reads its rate function; a forecast in real deployments).
    trace: "RateTrace"

    @property
    def committed_nodes(self) -> int:
        """Active plus already-provisioning nodes — the size a policy
        should treat as "what I already asked for"."""
        return self.nodes + self.pending_nodes

    def nodes_for_rate(
        self, rate_per_s: float, target_utilisation: float
    ) -> int:
        """Fleet size running ``rate_per_s`` at a target utilisation."""
        if target_utilisation <= 0:
            raise ValueError(
                f"target_utilisation must be positive, got "
                f"{target_utilisation}"
            )
        if rate_per_s <= 0:
            return 1
        return max(
            1, math.ceil(rate_per_s / (self.per_node_qps * target_utilisation))
        )

    @property
    def natural_depth(self) -> float:
        """Queries in flight per node at full capacity (Little's law on
        the intrinsic service time) — the unit that makes queue depth
        comparable between a pipelined engine holding a handful of items
        and a batched one holding thousands."""
        return self.per_node_qps * self.service_ms / 1e3


@runtime_checkable
class ScalerPolicy(Protocol):
    """Uniform surface every registered scaler policy implements."""

    name: str

    def desired_nodes(self, obs: AutoscaleObservation) -> int:
        """Target fleet size after ``obs``; the simulator clamps it to
        ``[obs.min_nodes, obs.max_nodes]`` and applies cool-down."""
        ...


_REGISTRY: Registry[ScalerPolicy] = Registry(
    "scaler policy", "policies", UnknownScalerError
)
register_scaler = _REGISTRY.register
get_scaler = _REGISTRY.get
available_scalers = _REGISTRY.names


# ---------------------------------------------------------------------------
# Built-in policies
# ---------------------------------------------------------------------------


class StaticScaler:
    """Never resize — the fixed fleet every elastic policy must beat."""

    name = "static"

    def desired_nodes(self, obs: AutoscaleObservation) -> int:
        return obs.committed_nodes


class ReactiveUtilisationScaler:
    """Threshold hysteresis on windowed utilisation.

    When the served window's utilisation rises above ``high`` the fleet
    resizes so the *same* offered rate would run at ``target``
    utilisation; when it falls below ``low`` the fleet shrinks towards
    the same target.  Between the thresholds nothing happens — the dead
    band is the hysteresis that keeps the fleet from oscillating when
    load hovers near a single threshold.
    """

    name = "reactive-utilisation"

    def __init__(
        self,
        high: float = 0.80,
        low: float = 0.40,
        target: float = 0.60,
    ):
        if not 0 < low < target < high:
            raise ValueError(
                f"need 0 < low < target < high, got low={low}, "
                f"target={target}, high={high}"
            )
        self.high = high
        self.low = low
        self.target = target

    def desired_nodes(self, obs: AutoscaleObservation) -> int:
        sized = obs.nodes_for_rate(obs.offered_rate_per_s, self.target)
        if obs.utilisation > self.high:
            return max(obs.committed_nodes, sized)
        if obs.utilisation < self.low:
            return min(obs.committed_nodes, sized)
        return obs.committed_nodes


class QueueDepthScaler:
    """Scale on per-node backlog (Little's law) instead of rate.

    The observation's ``queue_depth`` is the windowed mean number of
    queries in the system per node; the thresholds are expressed in
    units of the engine's *natural* in-flight count
    (:attr:`AutoscaleObservation.natural_depth` — a pipelined FPGA holds
    a handful of items at capacity, a batched GPU holds thousands, so an
    absolute count would be meaningless across tiers).  Above ``high``
    the fleet grows so the same aggregate backlog would spread to
    ``target`` of natural per node; below ``low`` it shrinks one node at
    a time (backlog estimates are noisy at light load, so the downward
    path is deliberately gentle).
    """

    name = "queue-depth"

    def __init__(
        self,
        high: float = 0.85,
        low: float = 0.35,
        target: float = 0.60,
    ):
        if not 0 < low < target < high:
            raise ValueError(
                f"need 0 < low < target < high, got low={low}, "
                f"target={target}, high={high}"
            )
        self.high = high
        self.low = low
        self.target = target

    def desired_nodes(self, obs: AutoscaleObservation) -> int:
        natural = obs.natural_depth
        if natural <= 0:
            return obs.committed_nodes
        depth_ratio = obs.queue_depth / natural
        if depth_ratio > self.high:
            aggregate = obs.queue_depth * obs.nodes
            return max(
                obs.committed_nodes,
                max(1, math.ceil(aggregate / (self.target * natural))),
            )
        if depth_ratio < self.low:
            return max(1, obs.committed_nodes - 1)
        return obs.committed_nodes


class PredictiveTraceScaler:
    """Size for the trace's *coming* peak, not the past window.

    Reads the offered-load trace's own rate function over the horizon a
    scale-up decision actually affects — from the next window's start
    until new capacity ordered now could be online and one more window
    has elapsed — takes the peak rate on a sampled grid, and sizes the
    fleet to run that peak at ``target`` utilisation.  With a faithful
    forecast this is near-oracle: capacity lands *before* the ramp,
    which no purely reactive policy can do once the provisioning delay
    exceeds the ramp time.
    """

    name = "predictive-trace"

    def __init__(self, target: float = 0.60, samples: int = 64):
        if target <= 0:
            raise ValueError(f"target must be positive, got {target}")
        if samples < 2:
            raise ValueError(f"samples must be >= 2, got {samples}")
        self.target = target
        self.samples = samples

    def desired_nodes(self, obs: AutoscaleObservation) -> int:
        start = obs.t_s + obs.interval_s
        horizon = obs.provision_delay_s + 2 * obs.interval_s
        grid = np.minimum(
            np.linspace(start, start + horizon, self.samples),
            obs.trace.duration_s - 1e-9,
        )
        peak = float(obs.trace.rates_at(grid).max())
        return obs.nodes_for_rate(peak, self.target)


class SlaFeedbackScaler:
    """Feedback control on the observed windowed tail vs the SLO.

    Misses scale up multiplicatively (``grow`` per missed window —
    recovering from an SLO breach is urgent and the miss says nothing
    about *how far* under-provisioned the fleet is), comfortable windows
    scale down additively (one node, only while the tail sits below
    ``down_margin`` of the SLO with full windowed attainment).  The
    asymmetry is deliberate — the cost of a breach is client-visible,
    the cost of one spare node is not.
    """

    name = "sla-feedback"

    def __init__(self, grow: float = 0.5, down_margin: float = 0.9):
        if grow <= 0:
            raise ValueError(f"grow must be positive, got {grow}")
        if not 0 < down_margin < 1:
            raise ValueError(
                f"down_margin must be in (0, 1), got {down_margin}"
            )
        self.grow = grow
        self.down_margin = down_margin

    def desired_nodes(self, obs: AutoscaleObservation) -> int:
        committed = obs.committed_nodes
        if obs.tail_ms > obs.slo_ms:
            if obs.pending_nodes > 0:
                # Capacity is already ordered but not yet online;
                # growing again on the same breach would compound the
                # multiplicative step once per provisioning-delay window
                # and overshoot badly.  Judge again once it serves.
                return committed
            return committed + max(1, math.ceil(committed * self.grow))
        if obs.tail_ms <= self.down_margin * obs.slo_ms and (
            obs.sla_attainment >= 1.0
        ):
            return max(1, committed - 1)
        return committed


DEFAULT_SCALERS: tuple[ScalerPolicy, ...] = (
    StaticScaler(),
    ReactiveUtilisationScaler(),
    QueueDepthScaler(),
    PredictiveTraceScaler(),
    SlaFeedbackScaler(),
)

for _scaler in DEFAULT_SCALERS:
    register_scaler(_scaler)
