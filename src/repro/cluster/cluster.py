"""Heterogeneous clusters: many sessions, one routed serving surface.

A :class:`Cluster` is a set of deployed
:class:`~repro.runtime.session.Session` replicas — possibly mixing
models *and* backends — behind one routing policy
(:mod:`repro.cluster.routing`).  It implements the same
:class:`~repro.runtime.session.ServingSurface` as a single session, so
everything built on sessions (the serving lab, ``plan_fleet_sla``, the
bench runner, the CLI) drives a routed fleet unchanged; ``serve`` returns
a :class:`ClusterServingResult` that *is* a
:class:`~repro.serving.queueing.ServingResult` (blended across replicas)
plus per-tier breakdowns and fleet-level cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.cluster.routing import (
    ReplicaView,
    RoutingPolicy,
    dispatch_counts,
    get_policy,
)
from repro.models.workload import QueryBatch
from repro.runtime.perf import PerfEstimate
from repro.runtime.session import ServingSurface, Session
from repro.serving.arrivals import check_positive
from repro.serving.queueing import ServingResult
from repro.serving.sla import DEFAULT_SLA_MS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import Telemetry


@dataclass(frozen=True)
class ClusterServingResult(ServingResult):
    """One cluster serving simulation: blended latency + per-tier detail.

    ``arrivals_ns`` / ``completions_ns`` are the *blended* stream —
    every query of every replica, ordered by arrival — so the inherited
    percentile/SLA machinery reports cluster-level ("blended") numbers
    and a cluster slots into any consumer of
    :class:`~repro.serving.queueing.ServingResult` (the serving lab, the
    SLA fleet planner).  ``assignments`` records which replica served
    each blended query; tier aggregates group replicas by backend name.
    """

    #: Replica index (into ``replica_backends``) per blended query.
    assignments: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: Backend name of each replica, aligned with assignment indices.
    replica_backends: tuple[str, ...] = ()
    #: Routing policy that produced the assignment.
    router: str = ""
    #: Hourly cost of the whole replica set (capacity.py rates).
    usd_per_hour: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.assignments.shape != self.arrivals_ns.shape:
            raise ValueError("assignments must align with arrivals")
        if self.assignments.size and (
            self.assignments.min() < 0
            or self.assignments.max() >= len(self.replica_backends)
        ):
            raise ValueError("assignment indices out of replica range")

    # -- per-replica / per-tier breakdowns ----------------------------------

    def replica_counts(self) -> tuple[int, ...]:
        """Queries served by each replica."""
        return tuple(
            int(np.count_nonzero(self.assignments == i))
            for i in range(len(self.replica_backends))
        )

    def tier_result(self, backend: str) -> ServingResult:
        """The blended result restricted to one backend tier."""
        if backend not in self.replica_backends:
            raise ValueError(
                f"no tier {backend!r} in this cluster; tiers: "
                f"{', '.join(dict.fromkeys(self.replica_backends))}"
            )
        mask = np.isin(
            self.assignments,
            [
                i
                for i, name in enumerate(self.replica_backends)
                if name == backend
            ],
        )
        if not mask.any():
            raise ValueError(
                f"tier {backend!r} served no queries in this simulation"
            )
        return ServingResult(
            arrivals_ns=self.arrivals_ns[mask],
            completions_ns=self.completions_ns[mask],
        )

    def tier_counts(self) -> dict[str, int]:
        """Queries served per backend tier (first-appearance order)."""
        return dispatch_counts(self.assignments, self.replica_backends)

    def tier_share(self, backend: str) -> float:
        """Fraction of blended queries served by one backend tier.

        0.0 for a tier that idled through the simulation; a backend
        name not in the cluster at all is rejected (the count-based
        accessors must agree with :meth:`tier_result` on typos rather
        than reporting a plausible 0.0).
        """
        if backend not in self.replica_backends:
            raise ValueError(
                f"no tier {backend!r} in this cluster; tiers: "
                f"{', '.join(dict.fromkeys(self.replica_backends))}"
            )
        return self.tier_counts()[backend] / self.count

    def spill_fraction(self, primary: str) -> float:
        """Fraction of queries that did *not* land on ``primary``."""
        return 1.0 - self.tier_share(primary)

    @property
    def usd_per_million_queries(self) -> float:
        """Fleet cost amortised over the throughput actually achieved."""
        qps = self.achieved_throughput_per_s
        if not np.isfinite(qps) or qps <= 0:
            return 0.0
        return self.usd_per_hour / 3600.0 / qps * 1e6

    def as_dict(self, slo_ms: float = DEFAULT_SLA_MS) -> dict[str, object]:
        """JSON-ready summary (CLI ``--json`` / bench schema v3 block)."""
        tiers: dict[str, object] = {}
        counts = self.tier_counts()
        replica_totals: dict[str, int] = {}
        for name in self.replica_backends:
            replica_totals[name] = replica_totals.get(name, 0) + 1
        for name, queries in counts.items():
            entry: dict[str, object] = {
                "replicas": replica_totals[name],
                "queries": queries,
                "share": queries / self.count,
            }
            if queries:
                tier = self.tier_result(name)
                entry.update(
                    {
                        "p50_ms": tier.p50_ms,
                        "p99_ms": tier.p99_ms,
                        "p999_ms": tier.p999_ms,
                        "sla_attainment": tier.sla_attainment(slo_ms),
                    }
                )
            tiers[name] = entry
        return {
            "router": self.router,
            "queries": self.count,
            "blended": {
                "mean_ms": self.mean_ms,
                "p50_ms": self.p50_ms,
                "p95_ms": self.p95_ms,
                "p99_ms": self.p99_ms,
                "p999_ms": self.p999_ms,
                "sla_attainment": self.sla_attainment(slo_ms),
                "achieved_qps": self.achieved_throughput_per_s,
            },
            "tiers": tiers,
            "usd_per_hour": self.usd_per_hour,
            "usd_per_million_queries": self.usd_per_million_queries,
        }


def _cluster_name(replicas: Sequence[Session]) -> str:
    """A stable display name: ``cluster(fpga+gpu+cpux2)``."""
    counts: dict[str, int] = {}
    for session in replicas:
        counts[session.backend] = counts.get(session.backend, 0) + 1
    parts = [
        name if count == 1 else f"{name}x{count}"
        for name, count in counts.items()
    ]
    return f"cluster({'+'.join(parts)})"


class Cluster(ServingSurface):
    """Heterogeneous replicas behind one routing policy.

    Build one with :func:`repro.cluster.deploy_cluster`; the constructor
    also accepts pre-built sessions directly (replicas may share a
    session object — the engines are stateless between calls, so one
    build can back many replica slots).  The cluster exposes the full
    :class:`~repro.runtime.session.ServingSurface`: ``serve`` routes the
    stream and blends per-replica results, ``serve_trace`` / ``sweep`` /
    ``fleet`` / ``fleet_sla`` treat the whole cluster as the unit being
    replicated, and ``infer`` dispatches a real inference batch to a
    replica hosting the requested model.
    """

    def __init__(
        self,
        replicas: Sequence[Session],
        router: RoutingPolicy | str = "round-robin",
        *,
        slo_ms: float = DEFAULT_SLA_MS,
        name: str | None = None,
        model_labels: Sequence[str] | None = None,
    ):
        if not replicas:
            raise ValueError("a Cluster needs at least one replica")
        check_positive("slo_ms", slo_ms)
        self.replicas: tuple[Session, ...] = tuple(replicas)
        # Replicas are addressed by the model label they were deployed
        # under (the registry name, e.g. "small"), not the scaled spec's
        # mangled name — deploy_cluster passes the labels through.
        if model_labels is None:
            labels = tuple(s.model.name for s in self.replicas)
        else:
            labels = tuple(model_labels)
            if len(labels) != len(self.replicas):
                raise ValueError(
                    f"{len(labels)} model labels for "
                    f"{len(self.replicas)} replicas"
                )
        self.model_labels: tuple[str, ...] = labels
        self.router: RoutingPolicy = (
            get_policy(router) if isinstance(router, str) else router
        )
        self.slo_ms = slo_ms
        self.backend = name or _cluster_name(self.replicas)
        self._perf_cache: PerfEstimate | None = None
        self._infer_cursor: dict[str, int] = {}

    def __repr__(self) -> str:
        return (
            f"Cluster({self.backend!r}, router={self.router.name!r}, "
            f"replicas={len(self.replicas)})"
        )

    def __len__(self) -> int:
        return len(self.replicas)

    # -- composition --------------------------------------------------------

    def models(self) -> tuple[str, ...]:
        """Model labels hosted by this cluster (first-appearance order)."""
        seen: dict[str, None] = {}
        for label in self.model_labels:
            seen.setdefault(label, None)
        return tuple(seen)

    def tiers(self) -> tuple[str, ...]:
        """Backend names in this cluster (first-appearance order)."""
        seen: dict[str, None] = {}
        for session in self.replicas:
            seen.setdefault(session.backend, None)
        return tuple(seen)

    def _views(self, indices: Sequence[int]) -> tuple[ReplicaView, ...]:
        views = []
        for i in indices:
            session = self.replicas[i]
            perf = session.perf()
            views.append(
                ReplicaView(
                    index=i,
                    backend=session.backend,
                    model=self.model_labels[i],
                    latency_ms=perf.latency_us / 1e3,
                    serving_latency_ms=perf.serving_latency_ms,
                    ii_ns=perf.ii_ns,
                    usd_per_hour=perf.usd_per_hour,
                    usd_per_million_queries=perf.usd_per_million_queries,
                )
            )
        return tuple(views)

    def _eligible(self, model: str | None) -> list[int]:
        if model is None:
            return list(range(len(self.replicas)))
        indices = [
            i
            for i, label in enumerate(self.model_labels)
            if label == model
        ]
        if not indices:
            raise ValueError(
                f"{self.backend}: no replica hosts model {model!r}; "
                f"hosted models: {', '.join(self.models())}"
            )
        return indices

    # -- inference ----------------------------------------------------------

    def infer(
        self, batch: QueryBatch, model: str | None = None
    ) -> np.ndarray:
        """Dispatch one inference batch to a replica hosting ``model``.

        With several replicas hosting the model, successive calls rotate
        round-robin between them (deterministically), as a front-end
        dispatcher would; the predictions are whatever that replica's
        engine computes — bit-identical across replicas of the same
        backend and precision.  ``model`` may be omitted when the
        cluster hosts a single model.
        """
        hosted = self.models()
        if model is None:
            if len(hosted) > 1:
                raise ValueError(
                    f"{self.backend} hosts {len(hosted)} models "
                    f"({', '.join(hosted)}); pass model=... to infer"
                )
            model = hosted[0]
        indices = self._eligible(model)
        cursor = self._infer_cursor.get(model, 0)
        chosen = indices[cursor % len(indices)]
        self._infer_cursor[model] = cursor + 1
        return self.replicas[chosen].infer(batch)

    # -- performance --------------------------------------------------------

    def perf(self) -> PerfEstimate:
        """Aggregate cluster estimate: summed capacity and cost.

        Throughput, compute rate, and hourly cost sum across replicas;
        latency figures are capacity-weighted blends (what a query sees
        when load spreads in proportion to capacity); the quoted
        bottleneck is the tier contributing the largest capacity share.
        """
        if self._perf_cache is None:
            perfs = [session.perf() for session in self.replicas]
            throughput = sum(p.throughput_items_per_s for p in perfs)
            weights = [p.throughput_items_per_s / throughput for p in perfs]
            tier_throughput: dict[str, float] = {}
            for session, p in zip(self.replicas, perfs):
                tier_throughput[session.backend] = (
                    tier_throughput.get(session.backend, 0.0)
                    + p.throughput_items_per_s
                )
            dominant = max(tier_throughput, key=lambda k: tier_throughput[k])
            precisions = {p.precision for p in perfs}
            memory = self._memory_estimate()
            self._perf_cache = PerfEstimate(
                backend=self.backend,
                precision=(
                    precisions.pop() if len(precisions) == 1 else "mixed"
                ),
                latency_us=sum(
                    w * p.latency_us for w, p in zip(weights, perfs)
                ),
                serving_latency_ms=sum(
                    w * p.serving_latency_ms for w, p in zip(weights, perfs)
                ),
                ii_ns=1e9 / throughput,
                throughput_items_per_s=throughput,
                throughput_gops=sum(p.throughput_gops for p in perfs),
                serving_batch=max(p.serving_batch for p in perfs),
                usd_per_hour=sum(p.usd_per_hour for p in perfs),
                bottleneck=f"{dominant} tier",
                memory=memory,
            )
        return self._perf_cache

    @property
    def usd_per_hour(self) -> float:
        return sum(session.usd_per_hour for session in self.replicas)

    # -- serving ------------------------------------------------------------

    def _serve(
        self,
        arrivals_ns: np.ndarray,
        model: str | None = None,
        **server_knobs: object,
    ) -> ClusterServingResult:
        """Route a stream across replicas and blend the results.

        The stream is assigned per arrival by the routing policy
        (restricted to replicas hosting ``model`` when given), each
        replica's share is served through its own queueing model, and
        the per-replica results are merged back into arrival order.
        Per-server knobs are rejected with a clear error (like the
        pipelined sessions' servers): a heterogeneous cluster has no
        single server to apply them to — configure the replica
        sessions' serving parameters at deploy time instead.
        """
        if server_knobs:
            raise TypeError(
                f"{self.backend}: cluster serving takes no per-server "
                f"knobs, got {sorted(server_knobs)}; configure the "
                "replica sessions at deploy time instead"
            )
        arrivals = np.sort(arrivals_ns)
        indices = self._eligible(model)
        views = self._views(indices)
        local = np.asarray(
            self.router.route(arrivals, views, slo_ms=self.slo_ms),
            dtype=np.int64,
        )
        if local.shape != arrivals.shape:
            raise ValueError(
                f"router {self.router.name!r} returned "
                f"{local.shape} assignments for {arrivals.shape} arrivals"
            )
        if local.size and (local.min() < 0 or local.max() >= len(views)):
            raise ValueError(
                f"router {self.router.name!r} produced replica indices "
                f"outside [0, {len(views)})"
            )
        blended_arrivals: list[np.ndarray] = []
        blended_completions: list[np.ndarray] = []
        blended_assignments: list[np.ndarray] = []
        for j, replica_index in enumerate(indices):
            mask = local == j
            if not mask.any():
                continue
            sub = arrivals[mask]
            result = self.replicas[replica_index].serve(sub)
            blended_arrivals.append(result.arrivals_ns)
            blended_completions.append(result.completions_ns)
            blended_assignments.append(
                np.full(sub.size, replica_index, dtype=np.int64)
            )
        merged_arrivals = np.concatenate(blended_arrivals)
        order = np.argsort(merged_arrivals, kind="stable")
        return ClusterServingResult(
            arrivals_ns=merged_arrivals[order],
            completions_ns=np.concatenate(blended_completions)[order],
            assignments=np.concatenate(blended_assignments)[order],
            replica_backends=tuple(
                session.backend for session in self.replicas
            ),
            router=self.router.name,
            usd_per_hour=self.usd_per_hour,
        )

    # -- telemetry -----------------------------------------------------------

    def _telemetry_extra(
        self, hub: "Telemetry", result: ServingResult
    ) -> None:
        """Count per-tier dispatch and off-primary spill.

        The primary tier is the cluster's first-listed backend (the
        fastest under the ``sla-aware`` convention); every query the
        router sent elsewhere counts as spill.
        """
        if not isinstance(result, ClusterServingResult):
            return
        metrics = hub.metrics
        counts = dispatch_counts(
            result.assignments, result.replica_backends
        )
        for tier, queries in counts.items():
            metrics.counter(f"cluster.dispatch.{tier}").inc(queries)
        primary = self.tiers()[0]
        metrics.counter(f"cluster.spill.{primary}").inc(
            result.count - counts.get(primary, 0)
        )

    def _span_phases(
        self, total_ns: float, service_ns: float, tier_ns: float
    ) -> tuple[tuple[str, float], ...]:
        """Bracket the per-replica phases with the cluster's own.

        Routing decisions and result gathers are instantaneous in the
        simulation, so their spans record zero duration — present in
        the trace (the request *did* route and gather) but free.
        """
        return (
            ("route-decision", 0.0),
            *super()._span_phases(total_ns, service_ns, tier_ns),
            ("gather", 0.0),
        )

    # -- reporting ----------------------------------------------------------

    def summary(self) -> dict[str, object]:
        perf = self.perf()
        return {
            "backend": self.backend,
            "router": self.router.name,
            "replicas": len(self.replicas),
            "tiers": {
                name: sum(
                    1 for s in self.replicas if s.backend == name
                )
                for name in self.tiers()
            },
            "models": list(self.models()),
            "slo_ms": self.slo_ms,
            "latency_us": perf.latency_us,
            "throughput_items_per_s": perf.throughput_items_per_s,
            "usd_per_hour": perf.usd_per_hour,
        }
