"""Discrete-time autoscaling simulation over a rate trace.

:func:`simulate_autoscale` closes the loop the rest of the repository
leaves open: the serving lab (PR 3) and routed clusters (PR 4) replay
traffic against a *fixed* fleet, while the diurnal / bursty / flash-crowd
:class:`~repro.serving.arrivals.RateTrace` s exist precisely to show when
a static size is over-provisioned at the trough or SLO-violating at the
peak.  Here a scaler policy (:mod:`repro.autoscale.policies`) drives an
elastic fleet through the trace in fixed control intervals:

1. each window's slice of the trace is split per node (Poisson splitting
   preserves the shape) and replayed through the deployment's own
   queueing model via the shared
   :class:`~repro.runtime.session.ServingSurface` — one-engine
   ``Session`` s and routed ``Cluster`` s both work unchanged;
2. the windowed telemetry (offered rate, utilisation, Little's-law queue
   depth, p50/p95/p99, SLA attainment) is handed to the policy;
3. the policy's desired size is clamped to ``[min_nodes, max_nodes]``,
   rate-limited by ``cooldown_s``, and scale-ups only come online after
   ``provision_delay_s`` — the three frictions that make autoscaling a
   control problem rather than arithmetic.

The :class:`AutoscaleResult` carries the full per-window timeline plus
blended cost ($/hour over the horizon, $/M offered queries) and, by
default, a static-fleet baseline: the same deployment sized for the
trace's *peak* by :func:`repro.deploy.capacity.plan_fleet_sla` and run
through the identical window loop, so "elastic at ≥ the same SLA for
strictly fewer dollars" is a single comparison on one object.

Determinism: every window's arrival stream is seeded content-addressably
(:func:`repro.serving.lab.lab_seed` over run seed, backend, policy,
window index, and fleet size), so a whole simulation is a pure function
of its arguments — the CLI's byte-identical ``--json`` guarantee, which
CI checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.autoscale.policies import (
    AutoscaleObservation,
    ScalerPolicy,
    available_scalers,
    get_scaler,
)
from repro.runtime.session import _is_integer
from repro.serving.arrivals import (
    RateTrace,
    check_positive,
    segment,
    trace_arrivals,
)
from repro.serving.lab import lab_seed
from repro.telemetry.digest import exact_quantile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.session import ServingSurface


@dataclass(frozen=True)
class AutoscaleWindow:
    """Telemetry of one control window of an autoscaling simulation."""

    index: int
    t_s: float
    interval_s: float
    #: Mean aggregate offered rate over the window (queries/s).
    offered_rate_per_s: float
    #: Nodes that served the window.
    nodes: int
    #: Nodes provisioning during the window (ordered, not yet serving).
    pending_nodes: int
    #: The policy's clamped target after this window.
    desired_nodes: int
    #: Queries in the simulated per-node sample stream (0 when the
    #: per-node rate was so small the realised stream was empty and the
    #: latency figures come from a lone unloaded probe query).
    queries: int
    utilisation: float
    #: Mean queries in system per node (Little's law on the window).
    queue_depth: float
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    #: Latency at the judged percentile (``slo_percentile``).
    tail_ms: float
    sla_attainment: float
    #: Fraction of the window's offered load above the fleet's sustained
    #: capacity — traffic a real deployment would shed or spill.
    overflow_share: float
    #: Nodes serving this window with not-yet-warm caches (only nonzero
    #: when the surface has a tier hierarchy attached: fresh scale-ups
    #: serve cold and re-warm from the traffic they absorb).
    cold_nodes: int = 0

    @property
    def offered_queries(self) -> float:
        """Expected aggregate queries offered during the window."""
        return self.offered_rate_per_s * self.interval_s

    def as_dict(self) -> dict[str, object]:
        return {
            "index": self.index,
            "t_s": self.t_s,
            "interval_s": self.interval_s,
            "offered_rate_per_s": self.offered_rate_per_s,
            "nodes": self.nodes,
            "pending_nodes": self.pending_nodes,
            "desired_nodes": self.desired_nodes,
            "queries": self.queries,
            "utilisation": self.utilisation,
            "queue_depth": self.queue_depth,
            "mean_ms": self.mean_ms,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "tail_ms": self.tail_ms,
            "sla_attainment": self.sla_attainment,
            "overflow_share": self.overflow_share,
            "cold_nodes": self.cold_nodes,
        }


def _weighted_attainment(windows: Sequence[AutoscaleWindow]) -> float:
    """SLA attainment over the horizon, weighted by offered queries."""
    offered = sum(w.offered_queries for w in windows)
    if offered <= 0:
        return 1.0
    return (
        sum(w.sla_attainment * w.offered_queries for w in windows) / offered
    )


def _node_hours(windows: Sequence[AutoscaleWindow]) -> float:
    return sum(w.nodes * w.interval_s for w in windows) / 3600.0


@dataclass(frozen=True)
class StaticBaseline:
    """The peak-sized fixed fleet an elastic run is compared against."""

    #: Fleet size :func:`~repro.deploy.capacity.plan_fleet_sla` buys for
    #: the trace's peak rate.
    nodes: int
    #: What throughput-headroom sizing alone would have bought.
    throughput_only_nodes: int
    usd_per_hour: float
    usd_total: float
    #: Offered-query-weighted SLA attainment of the static fleet run
    #: through the identical window loop.
    sla_attainment: float
    usd_per_million_queries: float

    def as_dict(self) -> dict[str, object]:
        return {
            "nodes": self.nodes,
            "throughput_only_nodes": self.throughput_only_nodes,
            "usd_per_hour": self.usd_per_hour,
            "usd_total": self.usd_total,
            "sla_attainment": self.sla_attainment,
            "usd_per_million_queries": self.usd_per_million_queries,
        }


@dataclass(frozen=True)
class AutoscaleResult:
    """One autoscaling simulation: per-window timeline + blended cost."""

    backend: str
    policy: str
    slo_ms: float
    slo_percentile: float
    per_node_qps: float
    node_usd_per_hour: float
    min_nodes: int
    max_nodes: int
    provision_delay_s: float
    cooldown_s: float
    seed: int
    trace_mean_rate_per_s: float
    trace_peak_rate_per_s: float
    duration_s: float
    windows: tuple[AutoscaleWindow, ...]
    #: Peak-sized fixed-fleet comparison; ``None`` when disabled or when
    #: the SLO is below the engine's latency floor (no static size can
    #: meet it — which is itself a result).
    static: StaticBaseline | None = None

    def __post_init__(self) -> None:
        if not self.windows:
            raise ValueError("an AutoscaleResult needs at least one window")

    # -- fleet-size aggregates ----------------------------------------------

    @property
    def mean_nodes(self) -> float:
        """Time-weighted mean fleet size over the horizon."""
        return sum(w.nodes * w.interval_s for w in self.windows) / (
            self.duration_s
        )

    @property
    def peak_nodes(self) -> int:
        return max(w.nodes for w in self.windows)

    @property
    def min_observed_nodes(self) -> int:
        return min(w.nodes for w in self.windows)

    @property
    def scaling_actions(self) -> int:
        """Windows after which the active fleet size actually changed."""
        return sum(
            1
            for a, b in zip(self.windows, self.windows[1:])
            if b.nodes != a.nodes
        )

    # -- cost aggregates -----------------------------------------------------

    @property
    def node_hours(self) -> float:
        return _node_hours(self.windows)

    @property
    def usd_total(self) -> float:
        """Dollars spent over the simulated horizon."""
        return self.node_hours * self.node_usd_per_hour

    @property
    def usd_per_hour(self) -> float:
        """Blended hourly cost (mean nodes x node rate)."""
        return self.mean_nodes * self.node_usd_per_hour

    @property
    def offered_queries(self) -> float:
        return sum(w.offered_queries for w in self.windows)

    @property
    def usd_per_million_queries(self) -> float:
        offered = self.offered_queries
        if offered <= 0:
            return 0.0
        return self.usd_total / offered * 1e6

    # -- service-quality aggregates ------------------------------------------

    @property
    def sla_attainment(self) -> float:
        """Offered-query-weighted SLA attainment over the horizon."""
        return _weighted_attainment(self.windows)

    @property
    def worst_tail_ms(self) -> float:
        return max(w.tail_ms for w in self.windows)

    @property
    def overflow_share(self) -> float:
        """Offered-query-weighted share of load above fleet capacity."""
        offered = self.offered_queries
        if offered <= 0:
            return 0.0
        return (
            sum(w.overflow_share * w.offered_queries for w in self.windows)
            / offered
        )

    # -- the elastic-vs-static comparison ------------------------------------

    @property
    def usd_savings_vs_static(self) -> float | None:
        """Fraction of the static fleet's spend the elastic run saved
        (negative when elasticity cost *more*); ``None`` without a
        baseline."""
        if self.static is None or self.static.usd_total <= 0:
            return None
        return 1.0 - self.usd_total / self.static.usd_total

    def as_dict(self) -> dict[str, object]:
        """JSON-ready record (CLI ``--json`` / bench schema v4 block)."""
        savings = self.usd_savings_vs_static
        return {
            "backend": self.backend,
            "policy": self.policy,
            "slo_ms": self.slo_ms,
            "slo_percentile": self.slo_percentile,
            "per_node_qps": self.per_node_qps,
            "node_usd_per_hour": self.node_usd_per_hour,
            "min_nodes": self.min_nodes,
            "max_nodes": self.max_nodes,
            "provision_delay_s": self.provision_delay_s,
            "cooldown_s": self.cooldown_s,
            "seed": self.seed,
            "trace": {
                "mean_rate_per_s": self.trace_mean_rate_per_s,
                "peak_rate_per_s": self.trace_peak_rate_per_s,
                "duration_s": self.duration_s,
            },
            "timeline": [w.as_dict() for w in self.windows],
            "aggregate": {
                "mean_nodes": self.mean_nodes,
                "peak_nodes": self.peak_nodes,
                "min_nodes": self.min_observed_nodes,
                "scaling_actions": self.scaling_actions,
                "node_hours": self.node_hours,
                "usd_total": self.usd_total,
                "usd_per_hour": self.usd_per_hour,
                "usd_per_million_queries": self.usd_per_million_queries,
                "offered_queries": self.offered_queries,
                "sla_attainment": self.sla_attainment,
                "worst_tail_ms": self.worst_tail_ms,
                "overflow_share": self.overflow_share,
                "usd_savings_vs_static": savings,
            },
            "static_baseline": (
                None if self.static is None else self.static.as_dict()
            ),
        }


def _window_trace(trace: RateTrace, t0: float, dt: float) -> RateTrace:
    """The trace restricted to ``[t0, t0 + dt)`` as a one-segment trace.

    Sampled through the vectorised :meth:`RateTrace.rates_at` rather
    than slicing segments, so windows that straddle segment boundaries
    need no special casing; the
    :func:`~repro.serving.arrivals.segment` helper rebuilds the
    thinning envelope from the samples.  Keeping the array path alive
    matters: both the envelope sampling and the thinning acceptance
    test evaluate this function over thousands of points per window.
    """

    def rate(local, base=t0):
        if np.ndim(local):
            return trace.rates_at(np.asarray(local, dtype=np.float64) + base)
        return trace.rate_at(base + float(local))

    return RateTrace((segment(dt, rate),))


class _WindowPlan:
    """Per-(trace, n_windows) engine prep shared across replay runs.

    Building a window's one-segment trace samples the parent trace on a
    512-point envelope grid, and scaling it per fleet size rebuilds the
    thinning envelope again — work that is a pure function of
    ``(trace, n_windows)`` and ``(window, node count)`` respectively.
    One plan memoises both, so the elastic run, the static-baseline
    replay, and every policy in :func:`compare_policies` (which all
    walk the identical window grid) reuse the same prepped traces
    instead of rebuilding them per window per run.
    """

    def __init__(self, trace: RateTrace, n_windows: int):
        self.trace = trace
        self.interval_s = trace.duration_s / n_windows
        self.windows = tuple(
            _window_trace(trace, w * self.interval_s, self.interval_s)
            for w in range(n_windows)
        )
        self._scaled: dict[tuple[int, int], RateTrace] = {}

    def per_node(self, w: int, nodes: int) -> RateTrace:
        """Window ``w``'s trace split across ``nodes`` equal shares."""
        if nodes == 1:
            return self.windows[w]
        key = (w, nodes)
        cached = self._scaled.get(key)
        if cached is None:
            cached = self.windows[w].scaled(1.0 / nodes)
            self._scaled[key] = cached
        return cached


@lru_cache(maxsize=8)
def _window_plan(trace: RateTrace, n_windows: int) -> _WindowPlan:
    return _WindowPlan(trace, n_windows)


def _serve_window(
    surface: "ServingSurface",
    per_node: RateTrace,
    rng: np.random.Generator,
) -> tuple[int, np.ndarray]:
    """Replay one window's per-node share; returns (queries, latencies).

    Splitting an aggregate Poisson-like stream across equal shares
    preserves the shape and divides the rate (``per_node`` is the
    window's trace already scaled by ``1 / nodes``), so one simulated
    node is statistically every node.  An empty realised stream (the
    per-node load is vanishingly small) is replaced by a lone probe
    query at the window start: it still pays the engine's unloaded cost,
    so the window's latency figures are the engine's floor rather than
    vacuous zeros — but its ``queries`` count is recorded as 0.
    """
    arrivals = trace_arrivals(rng, per_node)
    queries = int(arrivals.size)
    if queries == 0:
        arrivals = np.zeros(1)
    result = surface.serve(arrivals)
    return queries, result.latencies_ms


def _run_policy(
    surface: "ServingSurface",
    trace: RateTrace,
    policy: ScalerPolicy,
    *,
    n_windows: int,
    interval_s: float,
    initial_nodes: int,
    min_nodes: int,
    max_nodes: int,
    provision_delay_s: float,
    cooldown_s: float,
    slo_ms: float,
    slo_percentile: float,
    per_node_qps: float,
    service_ms: float,
    seed: int,
    plan: _WindowPlan | None = None,
    telemetry: object = None,
) -> tuple[AutoscaleWindow, ...]:
    """The control loop itself (shared by elastic runs and the static
    baseline replay).

    ``telemetry`` follows the ``serve`` knob convention (None = the
    surface's own hub, False = off, or an explicit hub): each window
    feeds a per-policy tail-latency histogram plus scaling-event and
    cold-start counters — the observability trail of every resize
    decision the policy makes.
    """
    hub = surface._resolve_telemetry(telemetry)
    metrics = hub.metrics if hub is not None else None
    if plan is None:
        plan = _window_plan(trace, n_windows)
    delay_windows = (
        0
        if provision_delay_s <= 0
        else max(1, math.ceil(provision_delay_s / interval_s - 1e-9))
    )
    active = initial_nodes
    #: activation window index -> node count coming online there.
    pending: dict[int, int] = {}
    # With a tier hierarchy attached, nodes carry cache state: cohorts
    # track how many steady-state accesses each activation batch has
    # absorbed.  The initial fleet (and the static baseline) are born
    # warm — only scale-ups pay the cold-start transient.
    tiered = getattr(surface, "tier_hierarchy", None) is not None
    warm_cap = surface.tier_hierarchy.warm_accesses if tiered else 0
    lookups = getattr(surface, "_tier_lookups", 1)
    #: activation window -> [node count, accesses absorbed so far].
    cohorts: dict[int, list[int]] = (
        {-1: [initial_nodes, warm_cap]} if tiered else {}
    )
    cooldown_until = -math.inf
    windows: list[AutoscaleWindow] = []
    for w in range(n_windows):
        activated = pending.pop(w, 0)
        active += activated
        if tiered and activated:
            cohorts[w] = [activated, 0]
        t0 = w * interval_s
        win_trace = plan.windows[w]
        rate = win_trace.mean_rate
        rng = np.random.default_rng(
            lab_seed(seed, surface.backend, policy.name, "autoscale", w, active)
        )
        cold_nodes = 0
        if not tiered:
            queries, latencies_ms = _serve_window(
                surface, plan.per_node(w, active), rng
            )
        else:
            # One per-node arrival stream (drawn exactly as in the flat
            # path), served once per warmth cohort: a fresh node replays
            # the same load against colder caches, so the window's
            # latency sample blends warm and cold nodes by head count.
            arrivals = trace_arrivals(rng, plan.per_node(w, active))
            queries = int(arrivals.size)
            if queries == 0:
                arrivals = np.zeros(1)
            samples = []
            for born in sorted(cohorts):
                count, absorbed = cohorts[born]
                if absorbed < warm_cap:
                    cold_nodes += count
                result = surface.serve(
                    arrivals, tier_warmup=min(absorbed, warm_cap)
                )
                samples.append(np.repeat(result.latencies_ms, count))
            latencies_ms = np.concatenate(samples)
            absorbed_now = queries * lookups
            for cohort in cohorts.values():
                cohort[1] = min(warm_cap, cohort[1] + absorbed_now)
        mean_ms = float(latencies_ms.mean())
        # One partition serves all four quantiles.
        p50, p95, p99, tail_ms = exact_quantile(
            latencies_ms, (50.0, 95.0, 99.0, slo_percentile)
        ).tolist()
        if metrics is not None:
            metrics.histogram(
                f"autoscale.window_tail_ms.{policy.name}"
            ).observe(tail_ms)
            metrics.gauge(f"autoscale.nodes.{policy.name}").set(float(active))
            if cold_nodes:
                metrics.counter(
                    f"autoscale.cold_node_windows.{policy.name}"
                ).inc(cold_nodes)
        capacity = active * per_node_qps
        utilisation = rate / capacity if capacity > 0 else 0.0
        pending_total = sum(pending.values())
        obs = AutoscaleObservation(
            window=w,
            t_s=t0,
            interval_s=interval_s,
            nodes=active,
            pending_nodes=pending_total,
            offered_rate_per_s=rate,
            utilisation=utilisation,
            queue_depth=(rate / active) * (mean_ms / 1e3),
            mean_ms=mean_ms,
            tail_ms=tail_ms,
            # The same float as the flags' mean, without a float cast.
            sla_attainment=(
                np.count_nonzero(latencies_ms <= slo_ms) / latencies_ms.size
            ),
            slo_ms=slo_ms,
            slo_percentile=slo_percentile,
            per_node_qps=per_node_qps,
            service_ms=service_ms,
            min_nodes=min_nodes,
            max_nodes=max_nodes,
            provision_delay_s=provision_delay_s,
            trace=trace,
        )
        desired = int(policy.desired_nodes(obs))
        desired = max(min_nodes, min(max_nodes, desired))
        windows.append(
            AutoscaleWindow(
                index=w,
                t_s=t0,
                interval_s=interval_s,
                offered_rate_per_s=rate,
                nodes=active,
                pending_nodes=pending_total,
                desired_nodes=desired,
                queries=queries,
                utilisation=utilisation,
                queue_depth=obs.queue_depth,
                mean_ms=mean_ms,
                p50_ms=p50,
                p95_ms=p95,
                p99_ms=p99,
                tail_ms=tail_ms,
                sla_attainment=obs.sla_attainment,
                overflow_share=(
                    max(0.0, 1.0 - capacity / rate) if rate > 0 else 0.0
                ),
                cold_nodes=cold_nodes,
            )
        )
        now = (w + 1) * interval_s
        committed = active + sum(pending.values())
        if desired != committed and now >= cooldown_until:
            if desired > committed:
                if metrics is not None:
                    metrics.counter(
                        f"autoscale.scale_up.{policy.name}"
                    ).inc(desired - committed)
                # Scale-ups ride the provisioning delay before serving.
                activation = w + 1 + delay_windows
                pending[activation] = (
                    pending.get(activation, 0) + desired - committed
                )
            else:
                if metrics is not None:
                    metrics.counter(
                        f"autoscale.scale_down.{policy.name}"
                    ).inc(committed - desired)
                # Scale-downs cancel not-yet-online orders first (they
                # cost nothing to abort), then decommission active nodes
                # effective from the next window.
                shrink = committed - desired
                for key in sorted(pending, reverse=True):
                    cancel = min(shrink, pending[key])
                    pending[key] -= cancel
                    shrink -= cancel
                    if pending[key] == 0:
                        del pending[key]
                    if shrink == 0:
                        break
                active -= shrink
                if tiered and shrink:
                    # Decommission the youngest (coldest) cohorts first:
                    # evicting a freshly warmed node wastes its warm-up.
                    remaining = shrink
                    for born in sorted(cohorts, reverse=True):
                        take = min(remaining, cohorts[born][0])
                        cohorts[born][0] -= take
                        remaining -= take
                        if cohorts[born][0] == 0:
                            del cohorts[born]
                        if remaining == 0:
                            break
            cooldown_until = now + cooldown_s
    return tuple(windows)


def simulate_autoscale(
    surface: "ServingSurface",
    trace: RateTrace,
    policy: ScalerPolicy | str = "reactive-utilisation",
    *,
    slo_ms: float,
    slo_percentile: float = 99.0,
    windows: int = 24,
    provision_delay_s: float | None = None,
    cooldown_s: float = 0.0,
    min_nodes: int = 1,
    max_nodes: int = 1_000_000,
    initial_nodes: int | None = None,
    headroom: float = 0.7,
    seed: int = 0,
    compare_static: bool = True,
    static_baseline: StaticBaseline | None = None,
    telemetry: object = None,
) -> AutoscaleResult:
    """Drive an elastic fleet of ``surface`` through ``trace``.

    Parameters
    ----------
    surface:
        Any :class:`~repro.runtime.session.ServingSurface` — a deployed
        :class:`~repro.runtime.session.Session` or a routed
        :class:`~repro.cluster.Cluster` (the fleet then scales whole
        clusters, exactly like :meth:`ServingSurface.fleet_sla`).
    trace:
        Aggregate offered load over the horizon; build one with
        :func:`~repro.serving.arrivals.diurnal_trace` and friends.
    policy:
        A registered scaler name (:func:`repro.autoscale.available_scalers`
        lists them) or a policy object; unknown names raise
        :class:`~repro.autoscale.policies.UnknownScalerError`.
    windows:
        Number of fixed control intervals the horizon is divided into
        (the control interval is ``trace.duration_s / windows``).
    provision_delay_s:
        Lag before a scale-up serves traffic (default: one control
        interval; 0 means new nodes serve from the next window).
        Scale-downs always take effect at the next window.
    cooldown_s:
        Minimum time between scaling *actions* — after any resize the
        policy's wishes are ignored until the cool-down expires.
    min_nodes / max_nodes:
        Hard fleet-size bounds the policy is clamped to.
    initial_nodes:
        Starting fleet (default: throughput-headroom sizing for the
        first window's mean rate — what a fresh deployment would buy).
    headroom:
        Utilisation cap used for the default initial sizing and for the
        static baseline's throughput floor.
    compare_static:
        Also size a fixed fleet for the trace's *peak* rate with
        :func:`~repro.deploy.capacity.plan_fleet_sla` and replay it
        through the identical window loop (``result.static``); when the
        SLO sits below the engine's latency floor the baseline is
        recorded as ``None``.
    static_baseline:
        A precomputed :class:`StaticBaseline` to attach instead of
        computing one — the baseline is a pure function of (surface,
        trace, SLO, seed), so callers comparing several policies over
        the same inputs compute it once and pass it to the rest
        (``compare_static`` is then ignored).
    telemetry:
        Observability hook following the :meth:`ServingSurface.serve`
        convention — ``None`` (default) feeds the surface's own
        always-on hub, ``False`` disables emission, or pass an explicit
        :class:`~repro.telemetry.Telemetry` hub.  Each control window
        records a per-policy tail-latency histogram, a fleet-size
        gauge, and scale-up / scale-down / cold-node counters.

    Returns the :class:`AutoscaleResult` timeline; the whole simulation
    is deterministic for fixed arguments.
    """
    policy_obj = get_scaler(policy) if isinstance(policy, str) else policy
    check_positive("slo_ms", slo_ms)
    if not 0 < slo_percentile < 100:
        raise ValueError(
            f"slo_percentile must be in (0, 100), got {slo_percentile}"
        )
    for name, value in (
        ("windows", windows),
        ("min_nodes", min_nodes),
        ("max_nodes", max_nodes),
        ("initial_nodes", 1 if initial_nodes is None else initial_nodes),
        ("seed", seed),
    ):
        if not _is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    windows, min_nodes, max_nodes, seed = (
        int(windows), int(min_nodes), int(max_nodes), int(seed)
    )
    if windows < 1:
        raise ValueError(f"windows must be >= 1, got {windows}")
    if min_nodes < 1:
        raise ValueError(f"min_nodes must be >= 1, got {min_nodes}")
    if max_nodes < min_nodes:
        raise ValueError(
            f"max_nodes {max_nodes} must be >= min_nodes {min_nodes}"
        )
    if not (math.isfinite(cooldown_s) and cooldown_s >= 0):
        raise ValueError(f"cooldown_s must be finite and >= 0, got {cooldown_s}")
    if not 0 < headroom <= 1:
        raise ValueError(f"headroom must be in (0, 1], got {headroom}")
    interval_s = trace.duration_s / windows
    if provision_delay_s is None:
        provision_delay_s = interval_s
    if not (math.isfinite(provision_delay_s) and provision_delay_s >= 0):
        raise ValueError(
            f"provision_delay_s must be finite and >= 0, got {provision_delay_s}"
        )
    perf = surface.perf()
    per_node_qps = perf.throughput_items_per_s
    plan = _window_plan(trace, windows)
    if initial_nodes is None:
        first_rate = plan.windows[0].mean_rate
        initial_nodes = max(
            1, math.ceil(first_rate / (per_node_qps * headroom))
        )
    if initial_nodes < 1:
        raise ValueError(f"initial_nodes must be >= 1, got {initial_nodes}")
    initial_nodes = max(min_nodes, min(max_nodes, int(initial_nodes)))

    run = {
        "n_windows": windows,
        "interval_s": interval_s,
        "min_nodes": min_nodes,
        "max_nodes": max_nodes,
        "provision_delay_s": provision_delay_s,
        "cooldown_s": cooldown_s,
        "slo_ms": slo_ms,
        "slo_percentile": slo_percentile,
        "per_node_qps": per_node_qps,
        "service_ms": perf.serving_latency_ms,
        "seed": seed,
        "plan": plan,
        "telemetry": telemetry,
    }
    timeline = _run_policy(
        surface, trace, policy_obj, initial_nodes=initial_nodes, **run
    )

    static: StaticBaseline | None = static_baseline
    if static_baseline is None and compare_static:
        from repro.deploy.capacity import plan_fleet_sla

        try:
            plan = plan_fleet_sla(
                trace.peak_rate,
                surface,
                slo_ms=slo_ms,
                slo_percentile=slo_percentile,
                duration_s=interval_s,
                headroom=headroom,
                seed=seed,
            )
        except ValueError:
            plan = None  # SLO below the engine's floor: no size meets it
        if plan is not None:
            static_nodes = plan.nodes
            # The baseline is a *fixed* fleet: pin both bounds to its
            # size so the elastic run's min/max clamps (which the shared
            # control loop applies to every policy's desire) cannot make
            # the never-resizes null hypothesis resize.
            static_timeline = _run_policy(
                surface,
                trace,
                get_scaler("static"),
                initial_nodes=static_nodes,
                **{
                    **run,
                    "min_nodes": static_nodes,
                    "max_nodes": static_nodes,
                },
            )
            usd_total = (
                _node_hours(static_timeline) * perf.usd_per_hour
            )
            offered = sum(w.offered_queries for w in static_timeline)
            static = StaticBaseline(
                nodes=static_nodes,
                throughput_only_nodes=plan.throughput_only_nodes,
                usd_per_hour=static_nodes * perf.usd_per_hour,
                usd_total=usd_total,
                sla_attainment=_weighted_attainment(static_timeline),
                usd_per_million_queries=(
                    usd_total / offered * 1e6 if offered > 0 else 0.0
                ),
            )

    return AutoscaleResult(
        backend=surface.backend,
        policy=policy_obj.name,
        slo_ms=slo_ms,
        slo_percentile=slo_percentile,
        per_node_qps=per_node_qps,
        node_usd_per_hour=perf.usd_per_hour,
        min_nodes=min_nodes,
        max_nodes=max_nodes,
        provision_delay_s=provision_delay_s,
        cooldown_s=cooldown_s,
        seed=seed,
        trace_mean_rate_per_s=trace.mean_rate,
        trace_peak_rate_per_s=trace.peak_rate,
        duration_s=trace.duration_s,
        windows=timeline,
        static=static,
    )


def compare_policies(
    surface: "ServingSurface",
    trace: RateTrace,
    policies: Sequence[ScalerPolicy | str] | None = None,
    *,
    progress: Callable[[str], None] | None = None,
    **knobs: object,
) -> dict[str, AutoscaleResult]:
    """Run several scaler policies over identical inputs, one baseline.

    The static peak-sized baseline is a pure function of (surface,
    trace, SLO, seed), so it is computed once — with the first policy's
    run — and attached to every other result, instead of re-searching
    the peak fleet size per policy.  ``policies`` defaults to every
    registered scaler; ``knobs`` are forwarded to
    :func:`simulate_autoscale` (``compare_static`` /
    ``static_baseline`` are managed here and must not be passed);
    ``progress`` is called with each policy's name before its run.
    Returns results keyed by policy name, in the order given.
    """
    for managed in ("compare_static", "static_baseline"):
        if managed in knobs:
            raise TypeError(
                f"compare_policies manages {managed!r} itself; "
                "drop it from the knobs"
            )
    resolved = [
        get_scaler(p) if isinstance(p, str) else p
        for p in (
            policies if policies is not None else available_scalers()
        )
    ]
    results: dict[str, AutoscaleResult] = {}
    static: StaticBaseline | None = None
    static_computed = False
    for policy in resolved:
        if progress is not None:
            progress(policy.name)
        result = simulate_autoscale(
            surface,
            trace,
            policy=policy,
            compare_static=not static_computed,
            static_baseline=static,
            **knobs,
        )
        if not static_computed:
            static, static_computed = result.static, True
        results[policy.name] = result
    return results
