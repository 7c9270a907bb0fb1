"""Routing policies: who serves the next query in a heterogeneous fleet.

A *routing policy* assigns every arrival in a query stream to one replica
of a :class:`~repro.cluster.cluster.Cluster`.  Policies register under
short names in a :class:`repro.registry.Registry`: everything above this
layer — :func:`repro.cluster.deploy_cluster`, the CLI, the bench runner —
selects routers by name and never touches policy constructors directly.

Four policies ship by default:

``round-robin``
    Arrival ``i`` goes to replica ``i mod n`` — the oblivious baseline.
``least-loaded``
    Each arrival goes to the replica whose *virtual queue* (a running
    per-replica model of backlog, advanced by the replica's sustained
    item spacing) would start serving it earliest; ties break towards
    the faster, lower-indexed replica.  Work-conserving and adaptive:
    a traffic burst spreads across the fleet instead of piling onto a
    fixed schedule.
``cheapest-first``
    Replicas are ordered by $/M-queries (the
    :class:`~repro.runtime.perf.PerfEstimate` figure priced from the
    rates in :mod:`repro.deploy.capacity`); each arrival goes to the
    cheapest replica whose virtual backlog is under a spill threshold,
    overflowing to the next-cheapest tier — cost-optimal until load
    forces the expensive tiers in.
``sla-aware``
    Tiers are ordered by serving latency (the paper's FPGA first);
    each arrival goes to the fastest replica whose *predicted* latency
    (virtual queueing delay + the tier's serving latency) still meets
    the SLO, spilling towards the GPU/CPU overflow tiers only once the
    primary tier's predicted tail exceeds the SLO.  If no tier can hold
    the SLO the arrival goes to the replica with the best prediction.

All policies are deterministic pure functions of the arrival stream and
the replica set — two runs of the same cluster under the same seed
produce byte-identical routing, which the CLI's ``--json`` determinism
guarantee (and CI) relies on.

Each policy is one incremental scan over the arrivals.  ``sla-aware``
also commits *fallback runs* in bulk.  When no tier meets the SLO,
every tier with a serving latency under the SLO is backlogged, and the
scan picks the first-in-order minimum of ``(free - t) + service``.  In
exact arithmetic ``t`` cancels between tiers, so a run of fallbacks
follows the merge of the tiers' ``free + service`` progressions, each
advancing by ``ii_ns`` per admission.  After a streak of fallback
steps the scan speculates the next block's choices from that merge
with NumPy and then recomputes each decision of the block with the
scan's own float expressions, on the free times the speculation
implies.  It commits the prefix on which the two agree (stopping early
at any admission to an idle tier, where the scan resets instead of
adding) and takes the next arrival itself.  By induction the result is
exactly the scan's, whatever the speculation guessed, for any finite
input: a positive, finite SLO, finite arrival timestamps, and replicas
with positive, finite ``ii_ns`` and finite, non-negative latencies
(:class:`ReplicaView` enforces the last two).

Third-party policies plug in with::

    from repro.cluster import register_policy

    class MyPolicy:
        name = "my-policy"

        def route(self, arrivals_ns, replicas, *, slo_ms):
            ...  # return one replica index per arrival

    register_policy(MyPolicy())
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.registry import Registry, UnknownNameError
from repro.serving.arrivals import check_positive


class UnknownRoutingPolicyError(UnknownNameError):
    """Raised when a routing-policy name is not in the registry."""


@dataclass(frozen=True)
class ReplicaView:
    """What a routing policy may know about one replica.

    A static snapshot of the replica's normalised performance — policies
    route on published numbers (as a production load balancer would on
    health-checked metadata), not on the internals of the queueing
    simulators.
    """

    index: int
    backend: str
    model: str
    #: Single-item latency (ms) — the unloaded floor.
    latency_ms: float
    #: Per-query latency at the serving operating point (ms) — what one
    #: admitted query should expect from an unqueued replica.
    serving_latency_ms: float
    #: Sustained item spacing at capacity (ns) — advances the virtual
    #: queue one query at a time.
    ii_ns: float
    usd_per_hour: float
    usd_per_million_queries: float

    def __post_init__(self) -> None:
        check_positive("ii_ns", self.ii_ns)
        for name in ("latency_ms", "serving_latency_ms"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"{name} must be finite and >= 0, got {value}"
                )


@runtime_checkable
class RoutingPolicy(Protocol):
    """Uniform surface every registered routing policy implements."""

    name: str

    def route(
        self,
        arrivals_ns: np.ndarray,
        replicas: Sequence[ReplicaView],
        *,
        slo_ms: float,
    ) -> np.ndarray:
        """One replica index (into ``replicas``) per arrival timestamp."""
        ...


_REGISTRY: Registry[RoutingPolicy] = Registry(
    "routing policy", "policies", UnknownRoutingPolicyError
)
register_policy = _REGISTRY.register
get_policy = _REGISTRY.get
available_policies = _REGISTRY.names


def dispatch_counts(
    assignments: np.ndarray, replica_backends: Sequence[str]
) -> dict[str, int]:
    """Queries dispatched per backend tier (first-appearance order).

    The one accounting of a routing outcome shared by
    :meth:`~repro.cluster.cluster.ClusterServingResult.tier_counts`
    and the telemetry dispatch/spill counters: ``assignments`` holds
    one replica index per query, replicas group into tiers by backend
    name, and tiers that served nothing still appear with 0.
    """
    counts: dict[str, int] = {
        name: 0 for name in dict.fromkeys(replica_backends)
    }
    if len(replica_backends):
        per_replica = np.bincount(
            np.asarray(assignments, dtype=np.int64),
            minlength=len(replica_backends),
        )
        for i, name in enumerate(replica_backends):
            counts[name] += int(per_replica[i])
    return counts


# ---------------------------------------------------------------------------
# Built-in policies
# ---------------------------------------------------------------------------


def _virtual_free(replicas: Sequence[ReplicaView]) -> np.ndarray:
    """Initial virtual-queue state: every replica free at time 0."""
    if not replicas:
        raise ValueError("cannot route over an empty replica set")
    return np.zeros(len(replicas), dtype=np.float64)


class RoundRobinPolicy:
    """Oblivious rotation: arrival ``i`` lands on replica ``i mod n``."""

    name = "round-robin"

    def route(
        self,
        arrivals_ns: np.ndarray,
        replicas: Sequence[ReplicaView],
        *,
        slo_ms: float,
    ) -> np.ndarray:
        _virtual_free(replicas)  # validates non-empty
        return np.arange(arrivals_ns.size, dtype=np.int64) % len(replicas)


class LeastLoadedPolicy:
    """Join the replica whose virtual queue starts serving you earliest.

    Per replica the policy keeps ``free[r]``, the time its virtual queue
    next has a service slot; admitting an arrival at ``t`` advances it by
    the replica's sustained spacing ``ii_ns``.  The arrival joins the
    replica with the earliest ``max(t, free[r])``, breaking ties towards
    the smaller spacing (faster replica) and then the lower index — so
    an idle fleet funnels to its fastest member and a loaded fleet
    spreads in proportion to capacity.
    """

    name = "least-loaded"

    def route(
        self,
        arrivals_ns: np.ndarray,
        replicas: Sequence[ReplicaView],
        *,
        slo_ms: float,
    ) -> np.ndarray:
        _virtual_free(replicas)  # validates non-empty
        ii = [float(r.ii_ns) for r in replicas]
        if len(replicas) == 1:
            return np.zeros(arrivals_ns.size, dtype=np.int64)
        order = sorted(range(len(replicas)), key=lambda i: (ii[i], i))
        # Incremental virtual-queue state: ``free`` is carried across
        # events as plain floats and advanced in place, never recomputed.
        # The scan keeps the first replica in ``order`` achieving the
        # strict minimum — the same tie-break as ``min(order, key=...)``.
        free = [0.0] * len(replicas)
        out: list[int] = []
        append = out.append
        inf = float("inf")
        for t in arrivals_ns.tolist():
            best = -1
            best_start = inf
            for i in order:
                start = free[i]
                if start < t:
                    start = t
                if start < best_start:
                    best_start = start
                    best = i
            append(best)
            free[best] = best_start + ii[best]
        return np.array(out, dtype=np.int64)


class CheapestFirstPolicy:
    """Fill the cheapest tier first, spilling when its backlog builds.

    Replicas are ranked by ``usd_per_million_queries``; each arrival goes
    to the cheapest replica whose virtual backlog is below
    ``max_backlog_ms``, overflowing to the next-cheapest.  When every
    replica is past the threshold the arrival joins the least-loaded one
    (work conservation beats price once the whole fleet is saturated).
    """

    name = "cheapest-first"

    def __init__(self, max_backlog_ms: float = 5.0):
        if max_backlog_ms <= 0:
            raise ValueError(
                f"max_backlog_ms must be positive, got {max_backlog_ms}"
            )
        self.max_backlog_ms = max_backlog_ms

    def route(
        self,
        arrivals_ns: np.ndarray,
        replicas: Sequence[ReplicaView],
        *,
        slo_ms: float,
    ) -> np.ndarray:
        _virtual_free(replicas)  # validates non-empty
        ii = [float(r.ii_ns) for r in replicas]
        order = sorted(
            range(len(replicas)),
            key=lambda i: (replicas[i].usd_per_million_queries, i),
        )
        threshold_ns = self.max_backlog_ms * 1e6
        # Incremental running state: per-replica virtual free times are
        # advanced event by event, never rebuilt by scanning history.
        free = [0.0] * len(replicas)
        out: list[int] = []
        append = out.append
        inf = float("inf")
        for t in arrivals_ns.tolist():
            best = -1
            for i in order:
                if free[i] - t <= threshold_ns:
                    best = i
                    break
            if best < 0:
                # Whole fleet past the spill threshold: least-loaded
                # fallback, first-in-order tie-break.
                best_start = inf
                for i in order:
                    start = free[i]
                    if start < t:
                        start = t
                    if start < best_start:
                        best_start = start
                        best = i
            append(best)
            start = free[best]
            if start < t:
                start = t
            free[best] = start + ii[best]
        return np.array(out, dtype=np.int64)


#: Bulk commits in the ``sla-aware`` scan.  A block starts at
#: ``_BLOCK_MIN`` arrivals, doubles after a fully verified commit and
#: halves after a partial one; a bulk try needs ``_STREAK`` consecutive
#: fallback steps first, doubled after each try that verifies fewer
#: than ``_BLOCK_MIN`` arrivals.  Below ``_BLOCK_MIN`` a try costs
#: about what the loop does; past ``_BLOCK_MAX`` blocks stop paying.
_BLOCK_MIN = 256
_BLOCK_MAX = 8192
_STREAK = 16
#: Arrivals the scan converts to Python floats at a time.
_CHUNK = 8192


def _commit_fallback_run(
    arrivals: np.ndarray,
    free: Sequence[float],
    ii: Sequence[float],
    service_ns: Sequence[float],
    slo_ns: float,
) -> tuple[np.ndarray, list[float]]:
    """Speculate one block of the ``sla-aware`` scan and verify it.

    ``free``, ``ii`` and ``service_ns`` are per tier, in priority
    order; ``arrivals`` is the block (non-empty).  Returns the tier
    positions of the longest prefix of the block on which the scan
    provably takes the speculated decisions, and each tier's free time
    after that prefix.

    In a fallback run every tier whose serving latency is under the SLO
    is backlogged and the scan picks the first-in-order minimum of
    ``(free - t) + service``; ``t`` cancels between tiers, so the run's
    choices are the stable merge of the tiers' progressions
    ``free + service``, each advancing by ``ii`` per admission.  That
    merge is only the guess.  The verification recomputes each decision
    with the scan's own float expressions on the free times the guess
    implies, and flags any admission to an idle tier (where the scan
    resets ``free`` to ``t`` instead of adding to it); the prefix before
    the first flag is exact.
    """
    m = arrivals.size
    n = len(free)
    # Tier p's free time after j more admissions is ``steps[p, j]``,
    # built by the same sequential additions the scan performs.
    steps = np.empty((n, m + 1))
    steps[:, 0] = free
    steps[:, 1:] = np.asarray(ii)[:, None]
    np.add.accumulate(steps, axis=1, out=steps)
    keys = steps[:, :m] + np.asarray(service_ns)[:, None]
    # The m smallest keys, stable so that equal keys go to the earlier
    # tier, as in the scan.
    guess = np.argsort(keys.ravel(), kind="stable")[:m] // m

    flagged = np.zeros(m, dtype=bool)
    decided = np.full(m, -1)
    best_pred = np.full(m, np.inf)
    fallback = np.zeros(m, dtype=np.int64)
    for p in range(n):
        admitted = np.flatnonzero(guess == p)
        row = steps[p]
        flagged[admitted[row[: admitted.size] < arrivals[admitted]]] = True
        # Tier p's free time at every arrival of the block.
        free_at = np.repeat(
            row[: admitted.size + 1],
            np.diff(admitted, prepend=-1, append=m - 1),
        )
        start = np.where(free_at < arrivals, arrivals, free_at)
        predicted = start - arrivals + service_ns[p]
        better = predicted < best_pred
        best_pred = np.where(better, predicted, best_pred)
        fallback[better] = p
        decided[(predicted <= slo_ns) & (decided < 0)] = p
    np.copyto(decided, fallback, where=decided < 0)
    flagged |= decided != guess
    q = int(flagged.argmax()) if flagged.any() else m
    admissions = np.bincount(guess[:q], minlength=n)
    return guess[:q], steps[np.arange(n), admissions].tolist()


class SlaAwarePolicy:
    """Spill from the fastest tier only when its predicted tail misses.

    Tiers are ordered by serving latency — in the paper's fleets the
    pipelined FPGA is primary and the GPU/CPU batched stacks are the
    overflow tiers.  For each arrival the policy predicts the latency a
    replica would deliver (virtual queueing delay plus the tier's
    serving latency) and admits the arrival at the *fastest* replica
    whose prediction still meets the SLO.  Under light load everything
    stays on the primary tier; spill starts exactly when the primary's
    predicted tail exceeds the SLO, and falls back to the best available
    prediction when no tier can hold it.

    The scan is a per-arrival loop that commits fallback runs in bulk
    (see the module docstring).  Under overload, arrivals fall back in
    long unbroken runs: on the e2e benchmark's diurnal cluster trace,
    72% of a ~1M-arrival stream, nearly all in one run from the peak
    until the virtual queues drain.
    """

    name = "sla-aware"

    def route(
        self,
        arrivals_ns: np.ndarray,
        replicas: Sequence[ReplicaView],
        *,
        slo_ms: float,
    ) -> np.ndarray:
        """One replica index per arrival.

        Requires a positive, finite ``slo_ms`` and finite
        ``arrivals_ns`` (any order, duplicates allowed); each
        :class:`ReplicaView` already guarantees a positive, finite
        ``ii_ns`` and a finite, non-negative ``serving_latency_ms``.
        These are the conditions under which every bulk-committed
        decision equals the per-arrival loop's.
        """
        check_positive("slo_ms", slo_ms)
        _virtual_free(replicas)  # validates non-empty
        arrivals = np.asarray(arrivals_ns, dtype=np.float64)
        if not np.isfinite(arrivals).all():
            raise ValueError("arrivals_ns must be finite")
        ii = [float(r.ii_ns) for r in replicas]
        service_ns = [float(r.serving_latency_ms) * 1e6 for r in replicas]
        order = sorted(
            range(len(replicas)),
            key=lambda i: (replicas[i].serving_latency_ms, i),
        )
        primary, overflow = order[0], order[1:]
        primary_service_ns = service_ns[primary]
        ranked_ii = [ii[i] for i in order]
        ranked_service_ns = [service_ns[i] for i in order]
        ranked_index = np.array(order, dtype=np.int64)
        slo_ns = slo_ms * 1e6
        # Incremental virtual-queue state, advanced in place per event.
        free = [0.0] * len(replicas)
        # Decisions so far: committed ``pieces`` plus the loop's ``out``.
        pieces: list[np.ndarray] = []
        committed = 0
        out: list[int] = []
        append = out.append
        last_fallback = -2
        streak = 0
        need = _STREAK
        block = _BLOCK_MIN
        # Timestamps become Python floats a chunk at a time, so a bulk
        # commit skips converting the arrivals it decides.
        while committed + len(out) < arrivals.size:
            at = committed + len(out)
            for t in arrivals[at : at + _CHUNK].tolist():
                start = free[primary]
                if start < t:
                    start = t
                predicted = start - t + primary_service_ns
                if predicted <= slo_ns:
                    append(primary)
                    free[primary] = start + ii[primary]
                    continue
                best = primary
                best_pred = predicted
                best_start = start
                for i in overflow:
                    start = free[i]
                    if start < t:
                        start = t
                    predicted = start - t + service_ns[i]
                    if predicted <= slo_ns:
                        break
                    # The fallback's pick so far: best prediction,
                    # first-in-order tie-break.
                    if predicted < best_pred:
                        best_pred = predicted
                        best = i
                        best_start = start
                else:
                    # No tier holds the SLO: take the fallback's pick,
                    # and after a streak of these try a bulk commit.
                    append(best)
                    free[best] = best_start + ii[best]
                    k = committed + len(out)  # the next arrival
                    streak = streak + 1 if k == last_fallback + 1 else 1
                    last_fallback = k
                    if streak < need or k == arrivals.size:
                        continue
                    streak = 0
                    chosen, after = _commit_fallback_run(
                        arrivals[k : k + block],
                        [free[i] for i in order],
                        ranked_ii,
                        ranked_service_ns,
                        slo_ns,
                    )
                    taken = chosen.size
                    if taken == min(block, arrivals.size - k):
                        block = min(2 * block, _BLOCK_MAX)
                        need = _STREAK
                    else:
                        block = max(block // 2, _BLOCK_MIN)
                        if taken < _BLOCK_MIN:
                            need *= 2
                    if taken:
                        pieces.append(np.array(out, dtype=np.int64))
                        pieces.append(ranked_index[chosen])
                        committed = k + taken
                        out = []
                        append = out.append
                        for i, value in zip(order, after):
                            free[i] = value
                        break
                    continue
                append(i)
                free[i] = start + ii[i]
        pieces.append(np.array(out, dtype=np.int64))
        return np.concatenate(pieces)


DEFAULT_POLICIES: tuple[RoutingPolicy, ...] = (
    RoundRobinPolicy(),
    LeastLoadedPolicy(),
    CheapestFirstPolicy(),
    SlaAwarePolicy(),
)

for _policy in DEFAULT_POLICIES:
    register_policy(_policy)
