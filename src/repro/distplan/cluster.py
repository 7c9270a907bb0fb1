"""Sharded serving: one model spread across a cluster's nodes.

:class:`ShardedCluster` is a :class:`~repro.cluster.cluster.Cluster`
whose replicas do not each hold the whole model: a
:class:`~repro.distplan.plan.ShardingPlan` assigns every table slice to
a node, and the router executes the plan instead of balancing load —
every query fans out to all shard owners and completes when the slowest
owner answers plus one gather step per additional owner.  Because it
implements the same :class:`~repro.runtime.session.ServingSurface`,
``serve`` / ``serve_trace`` / ``sweep`` / ``fleet_sla`` all report
fan-out-aware latency unchanged.

:func:`deploy_sharded` is the one-call frontend, the sharded sibling of
:func:`repro.cluster.deploy_cluster`: name the model, the node mix, and
optionally a strategy; sessions are built row-capped (``max_rows``, the
library's laptop-friendly convention) while the plan is computed and
capacity-checked on the *full* model spec.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.cluster.api import ReplicaSpec, deploy_cluster
from repro.cluster.cluster import Cluster, ClusterServingResult
from repro.distplan.plan import ShardingPlan
from repro.distplan.planner import AUTO_STRATEGY, default_gather_ns, plan_sharding
from repro.distplan.strategies import get_strategy
from repro.distplan.topology import cluster_topology
from repro.models.spec import ModelSpec, resolve_model
from repro.runtime.perf import PerfEstimate
from repro.runtime.session import Session
from repro.serving.lab import DEFAULT_SLA_MS
from repro.serving.queueing import sorted_arrivals

#: Router label reported by plan-executing (fan-out/gather) serving.
FANOUT_ROUTER = "fanout"


@dataclass(frozen=True)
class ShardedServingResult(ClusterServingResult):
    """A fan-out serving simulation: blended = max-of-owners + gather.

    ``assignments`` records the latency-binding owner of each query
    (the node whose answer completed the gather), so the inherited tier
    breakdowns show which tier the fan-out waits on.
    """

    strategy: str = ""
    fanout: int = 0
    gather_ns: float = 0.0

    def as_dict(self, slo_ms: float = DEFAULT_SLA_MS) -> dict[str, object]:
        out = super().as_dict(slo_ms)
        out["strategy"] = self.strategy
        out["fanout"] = self.fanout
        return out


class ShardedCluster(Cluster):
    """A cluster serving one model through a sharding plan.

    The routing policy is fixed: a plan-executing fan-out/gather
    (reported as ``"fanout"``), since a query cannot be load-balanced
    away from the nodes that hold its embedding rows.
    """

    def __init__(
        self,
        replicas: Sequence[Session],
        plan: ShardingPlan,
        *,
        slo_ms: float = DEFAULT_SLA_MS,
        name: str | None = None,
        model_labels: Sequence[str] | None = None,
        gather_ns: float | None = None,
    ):
        super().__init__(
            replicas,
            "round-robin",  # placeholder; fan-out ignores routing policies
            slo_ms=slo_ms,
            name=name,
            model_labels=model_labels,
        )
        if len(plan.nodes) != len(self.replicas):
            raise ValueError(
                f"plan places on {len(plan.nodes)} nodes but the "
                f"cluster has {len(self.replicas)} replicas"
            )
        self.plan = plan.validate()
        self.gather_ns = (
            default_gather_ns() if gather_ns is None else float(gather_ns)
        )

    def __repr__(self) -> str:
        return (
            f"ShardedCluster({self.backend!r}, "
            f"strategy={self.plan.strategy!r}, "
            f"fanout={self.plan.fanout}, replicas={len(self.replicas)})"
        )

    # -- performance --------------------------------------------------------

    def perf(self) -> PerfEstimate:
        """Fan-out estimate: slowest owner's latency, lockstep throughput.

        Every query waits for every shard owner, so latency is the
        slowest owner's plus the gather steps, and sustained throughput
        is the *minimum* over owners (the fan-out advances in lockstep)
        — unlike a replicated cluster, whose capacities add.  Cost sums
        the whole provisioned fleet.
        """
        if self._perf_cache is None:
            owners = self.plan.owner_nodes()
            perfs = [self.replicas[i].perf() for i in owners]
            gather_us = self.gather_ns * (len(owners) - 1) / 1e3
            slowest = max(
                range(len(perfs)), key=lambda k: perfs[k].serving_latency_ms
            )
            throughput = min(p.throughput_items_per_s for p in perfs)
            precisions = {p.precision for p in perfs}
            self._perf_cache = PerfEstimate(
                backend=self.backend,
                precision=(
                    precisions.pop() if len(precisions) == 1 else "mixed"
                ),
                latency_us=max(p.latency_us for p in perfs) + gather_us,
                serving_latency_ms=(
                    perfs[slowest].serving_latency_ms + gather_us / 1e3
                ),
                ii_ns=1e9 / throughput,
                throughput_items_per_s=throughput,
                throughput_gops=min(p.throughput_gops for p in perfs),
                serving_batch=max(p.serving_batch for p in perfs),
                usd_per_hour=self.usd_per_hour,
                bottleneck=(
                    f"fan-out ({self.replicas[owners[slowest]].backend})"
                ),
            )
        return self._perf_cache

    # -- serving ------------------------------------------------------------

    def _serve(
        self,
        arrivals_ns: np.ndarray,
        model: str | None = None,
        **server_knobs: object,
    ) -> ShardedServingResult:
        """Execute the plan: fan out to every shard owner, gather.

        Each owner serves the *full* stream through its own queueing
        model (every query needs its shards); a query completes when
        its slowest owner answers, plus one gather step per additional
        owner.  Owners sharing a session object (replica slots of one
        tier) are simulated once.
        """
        if server_knobs:
            raise TypeError(
                f"{self.backend}: cluster serving takes no per-server "
                f"knobs, got {sorted(server_knobs)}; configure the "
                "replica sessions at deploy time instead"
            )
        self._eligible(model)  # validate the model label, if given
        arrivals = sorted_arrivals(arrivals_ns)
        owners = self.plan.owner_nodes()
        per_session: dict[int, np.ndarray] = {}
        completions = np.empty((len(owners), arrivals.size))
        for k, node in enumerate(owners):
            session = self.replicas[node]
            key = id(session)
            if key not in per_session:
                per_session[key] = session.serve(arrivals).completions_ns
            completions[k] = per_session[key]
        binding = completions.argmax(axis=0)
        gather = self.gather_ns * (len(owners) - 1)
        return ShardedServingResult(
            arrivals_ns=arrivals,
            completions_ns=completions.max(axis=0) + gather,
            assignments=np.asarray(owners, dtype=np.int64)[binding],
            replica_backends=tuple(s.backend for s in self.replicas),
            router=FANOUT_ROUTER,
            usd_per_hour=self.usd_per_hour,
            strategy=self.plan.strategy,
            fanout=self.plan.fanout,
            gather_ns=self.gather_ns,
        )

    # -- reporting ----------------------------------------------------------

    def summary(self) -> dict[str, object]:
        out = super().summary()
        out["router"] = FANOUT_ROUTER
        out["strategy"] = self.plan.strategy
        out["fanout"] = self.plan.fanout
        out["total_gb"] = self.plan.as_dict()["total_gb"]
        out["max_node_utilisation"] = max(self.plan.node_utilisation())
        return out


def deploy_sharded(
    model: ModelSpec | str,
    replicas: Sequence[ReplicaSpec],
    strategy: str | None = None,
    *,
    slo_ms: float = DEFAULT_SLA_MS,
    max_rows: int | None = None,
    seed: int = 0,
    name: str | None = None,
    node_capacity_bytes: int | None = None,
    gather_ns: float | None = None,
    **build_knobs: object,
) -> ShardedCluster:
    """Deploy one model sharded across a heterogeneous cluster.

    The node mix is given as :class:`~repro.cluster.ReplicaSpec` tiers
    exactly like :func:`repro.cluster.deploy_cluster`, except every
    node hosts (a shard of) the *same* ``model`` — each spec's own
    ``model`` field is ignored.  The plan is computed on the full model
    spec against each node family's DRAM budget
    (:data:`repro.distplan.topology.NODE_DRAM_BYTES`, or
    ``node_capacity_bytes`` applied uniformly), while the serving
    sessions are built row-capped via ``max_rows`` as usual — capacity
    feasibility is judged at real scale even on a laptop.
    """
    if strategy is not None and strategy != AUTO_STRATEGY:
        get_strategy(strategy)  # fail on typos before any build work
    spec = resolve_model(model)
    cluster = deploy_cluster(
        [replace(r, model=model) for r in replicas],
        "round-robin",
        slo_ms=slo_ms,
        max_rows=max_rows,
        seed=seed,
        **build_knobs,
    )
    nodes = cluster_topology(
        cluster, capacity_override_bytes=node_capacity_bytes
    )
    plan = plan_sharding(spec, nodes, strategy, gather_ns=gather_ns)
    return ShardedCluster(
        cluster.replicas,
        plan,
        slo_ms=slo_ms,
        name=name or f"sharded-{cluster.backend}",
        model_labels=cluster.model_labels,
        gather_ns=gather_ns,
    )
