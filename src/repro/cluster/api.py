"""One-call cluster deployment: :func:`deploy_cluster`.

The convenience frontend over the backend and routing registries: name
the replica mix (models x backends x counts), name a router, get a live
:class:`~repro.cluster.cluster.Cluster` back — the many-replica
generalisation of :func:`repro.deploy_model`, which remains the trivial
one-replica case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.cluster.cluster import Cluster
from repro.cluster.routing import get_policy
from repro.models.spec import ModelSpec
from repro.runtime.api import deploy_model
from repro.serving.arrivals import check_positive
from repro.serving.lab import DEFAULT_SLA_MS


@dataclass(frozen=True)
class ReplicaSpec:
    """One homogeneous tier of a cluster: ``count`` replicas of a build.

    ``model`` and ``backend`` take exactly what
    :func:`repro.deploy_model` takes; ``precision`` and ``max_rows``
    override the cluster-wide defaults for this tier only.  The tier is
    built *once* and the session object backs all ``count`` replica
    slots — the engines are stateless between calls, so the slots only
    need distinct identities for routing, not distinct table copies.
    """

    model: ModelSpec | str = "small"
    backend: str = "fpga"
    count: int = 1
    precision: str | None = None
    max_rows: int | None = None

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(
                f"{self.backend}: replica count must be >= 1, "
                f"got {self.count}"
            )


def deploy_cluster(
    replicas: Sequence[ReplicaSpec],
    router: str = "round-robin",
    *,
    slo_ms: float = DEFAULT_SLA_MS,
    max_rows: int | None = None,
    seed: int = 0,
    name: str | None = None,
    **build_knobs: object,
) -> Cluster:
    """Deploy a heterogeneous cluster behind one routing policy.

    Parameters
    ----------
    replicas:
        The replica mix, one :class:`ReplicaSpec` per tier.  Tiers may
        repeat backends (e.g. two differently row-capped ``cpu`` tiers)
        and may host different models — routing restricts to the right
        replicas per request.
    router:
        A registered routing-policy name
        (:func:`repro.cluster.available_policies` lists them: built-ins
        are ``round-robin``, ``least-loaded``, ``cheapest-first``,
        ``sla-aware``); unknown names raise
        :class:`~repro.cluster.routing.UnknownRoutingPolicyError`.
    slo_ms:
        The latency SLO the ``sla-aware`` policy routes against (and the
        default judged by :meth:`ClusterServingResult.as_dict`).
    max_rows / seed / build_knobs:
        Shared deployment knobs forwarded to :func:`repro.deploy_model`
        for every tier; a tier's own ``max_rows`` / ``precision`` win
        over the shared values.

    Examples
    --------
    >>> from repro.cluster import ReplicaSpec, deploy_cluster
    >>> cluster = deploy_cluster(
    ...     [
    ...         ReplicaSpec(model="small", backend="fpga"),
    ...         ReplicaSpec(model="small", backend="cpu", count=2),
    ...     ],
    ...     router="sla-aware",
    ...     max_rows=512,
    ... )
    >>> (len(cluster), cluster.tiers())
    (3, ('fpga', 'cpu'))
    """
    specs = list(replicas)
    if not specs:
        raise ValueError("deploy_cluster needs at least one ReplicaSpec")
    # Fail on typos and bad SLOs before any build work.
    policy = get_policy(router)
    check_positive("slo_ms", slo_ms)
    sessions = []
    labels = []
    for spec in specs:
        knobs = dict(build_knobs)
        if spec.precision is not None:
            knobs["precision"] = spec.precision
        session = deploy_model(
            spec.model,
            backend=spec.backend,
            max_rows=spec.max_rows if spec.max_rows is not None else max_rows,
            seed=seed,
            **knobs,
        )
        label = (
            spec.model if isinstance(spec.model, str) else spec.model.name
        )
        sessions.extend([session] * spec.count)
        labels.extend([label] * spec.count)
    return Cluster(
        sessions, policy, slo_ms=slo_ms, name=name, model_labels=labels
    )
