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
also decides in NumPy blocks wherever its decisions follow a known
pattern, always by one recipe: guess the block's decisions, recompute
each of them with the scan's own float expressions on the free times
the guess implies, commit the prefix on which the two agree, and let
the scan take the next arrival itself.  By induction the result is
exactly the scan's, whatever the guess, for any finite input: a
positive, finite SLO, finite arrival timestamps, and replicas with
positive, finite ``ii_ns`` and finite, non-negative latencies
(:class:`ReplicaView` enforces the last two).  There are two kinds of
block:

*Cascade runs*, where the cascade decides every arrival.  The guess
holds the first ``d`` tiers at the SLO and lets tier ``d`` take all
they spill (``d = 0`` is a run on the primary).  A tier held at the
SLO is backlogged: it admits an arrival whenever its predicted wait
has drained to the SLO less its service.  Tier ``d``'s free times
follow Lindley's recursion ``free = max(free, t) + ii``, whose closed
form marks its busy periods.  The scan tries a cascade run at the end
of each span of its loop that did not end in a fallback, with ``d`` the
number of tiers that miss the SLO for the next arrival.

*Fallback runs*, where no tier meets the SLO.  Every tier with a
serving latency under the SLO is backlogged, and the scan picks the
first-in-order minimum of ``(free - t) + service``; in exact
arithmetic ``t`` cancels between tiers, so the run follows the stable
merge of the tiers' ``free + service`` progressions, each advancing by
``ii_ns`` per admission.  The scan tries a fallback run after a streak
of fallback steps.

On the e2e benchmark's replay-diurnal cluster stream (999,254 arrivals
at 0.8 of the fleet's capacity) cascade runs commit 28.2% of the
decisions, fallback runs 71.5%, and the per-arrival loop takes 0.3%.

Third-party policies plug in with::

    from repro.cluster import register_policy

    class MyPolicy:
        name = "my-policy"

        def route(self, arrivals_ns, replicas, *, slo_ms):
            ...  # return one replica index per arrival

    register_policy(MyPolicy())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.registry import Registry, UnknownNameError
from repro.serving.arrivals import check_non_negative, check_positive


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
        for name in (
            "latency_ms",
            "serving_latency_ms",
            "usd_per_hour",
            "usd_per_million_queries",
        ):
            check_non_negative(name, getattr(self, name))


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
        check_positive("max_backlog_ms", max_backlog_ms)
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
#: halves after a partial one; fallback runs, and cascade runs with
#: each number of tiers held at the SLO, keep a block size each.  A
#: fallback try needs ``_STREAK`` consecutive fallback steps first,
#: doubled after each try that verifies fewer than ``_BLOCK_MIN``
#: arrivals, and a run shorter than ``_STREAK`` ends a cascade try.
#: Below ``_BLOCK_MIN`` a try costs about what the loop does; past
#: ``_BLOCK_MAX`` blocks stop paying.
_BLOCK_MIN = 256
_BLOCK_MAX = 8192
_STREAK = 16
#: Arrivals the scan converts to Python floats at a time: ``_SPAN_MIN``
#: after a bulk commit, doubling up to ``_CHUNK`` while the loop runs
#: without one.  A cascade try waits for the end of a span, so the
#: doubling is also its back-off.
_SPAN_MIN = 32
_CHUNK = 8192
#: Keys a fallback block's rows hold beyond each tier's share of it.
_ROW_SLACK = 8
#: Merged fallback keys closer than this share of their magnitude are
#: re-checked with the scan's expressions: ``2**-44`` is 512 units in
#: the last place, where the float error of the comparison is below 16.
_NEAR_TIE = 2.0**-44
#: Arrival positions within a block, shared read-only by every call.
_INDEX = np.arange(_BLOCK_MAX)
_INDEX.flags.writeable = False


def _resized(block: int, offered: int, taken: int) -> int:
    """The next block size: doubled after a fully verified block of
    ``offered`` arrivals, halved after a partial one."""
    if taken == offered:
        return min(2 * block, _BLOCK_MAX)
    return max(block // 2, _BLOCK_MIN)


def _lindley_guess(arrivals: np.ndarray, free: float, ii: float) -> np.ndarray:
    """A tier's free times if it admits every arrival of ``arrivals``.

    Entry ``j`` is the free time before arrival ``j``, the last one the
    free time after the block.  The scan's recursion is Lindley's
    ``free = max(free, t) + ii``, whose closed form
    ``(j + 1) * ii + max(free, max over i <= j of (t_i - i * ii))``
    marks the arrivals that find the tier idle: each opens a busy
    period.  Within a busy period the scan adds ``ii`` again and again,
    and while the sum stays in one binade every addition adds the same
    quantum, ``ii`` rounded to that binade's ulp, so the guess is
    ``start + k * quantum``.  A busy period that crosses a power of two
    is guessed wrong from there on; callers verify.
    """
    size = arrivals.size
    index = _INDEX[:size]
    # Few temporaries, each reused: fresh block-sized arrays cost more
    # in page faults than the arithmetic on them.
    lead = np.multiply(index, ii)
    np.subtract(arrivals, lead, out=lead)
    before = np.empty(size)
    before[0] = free
    np.maximum.accumulate(lead[:-1], out=before[1:])
    np.maximum(before[1:], free, out=before[1:])
    # The arrival that opened each arrival's busy period (0 for the one
    # the block opens in), and the time the scan started it.
    first = np.multiply(lead > before, index)
    np.maximum.accumulate(first, out=first)
    start = arrivals[first]
    start[: np.searchsorted(first, 1)] = max(free, float(arrivals[0]))
    quantum = np.add(start, ii, out=lead)
    quantum -= start
    steps = np.subtract(index, first, out=first)
    steps += 1
    guess = np.empty(size + 1)
    guess[0] = free
    np.multiply(steps, quantum, out=guess[1:])
    guess[1:] += start
    return guess


def _admits(
    arrivals: np.ndarray,
    free_at: np.ndarray,
    free_after: np.ndarray,
    ii: float,
    service_ns: float,
    slo_ns: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The scan's own step for one tier, on guessed free times.

    ``free_at`` is the tier's free time at each arrival and
    ``free_after`` its guessed free time after admitting it.  Returns
    where the tier meets the SLO, and where it does and admitting the
    arrival advances its free time to ``free_after``.  ``np.maximum``
    stands in for the scan's ``start``; it equals it in value and can
    differ only in the sign of a zero, which neither ``start - t``
    compared with the SLO nor ``start + ii`` can show.
    """
    start = np.maximum(free_at, arrivals)
    ok = np.add(start, ii) == free_after
    start -= arrivals
    start += service_ns
    meets = start <= slo_ns
    ok &= meets
    return meets, ok


def _commit_cascade_run(
    arrivals: np.ndarray,
    free: Sequence[float],
    ii: Sequence[float],
    service_ns: Sequence[float],
    slo_ns: float,
) -> tuple[np.ndarray, list[float]]:
    """Speculate one block of cascade decisions and verify it.

    ``free``, ``ii`` and ``service_ns`` are those of the first ``d + 1``
    tiers, in priority order; ``arrivals`` is the block (non-empty).
    The guess holds tiers ``0 .. d - 1`` at the SLO and lets tier ``d``
    take every arrival they spill: ``d = 0`` is a primary run.  Returns
    the tier positions of the longest prefix of the block on which the
    scan provably takes the guessed decisions, and the ``d + 1`` tiers'
    free times after it.

    A tier held at the SLO is backlogged: after ``k`` more admissions
    its free time is ``free + k * ii``, added as the scan adds, and it
    admits the first arrival offered to it, after its previous
    admission, whose predicted wait has drained to the SLO less its
    service; it spills the others to the next tier.  Tier ``d`` admits
    all it is offered, so its free times follow :func:`_lindley_guess`.
    The verification redoes each step with the scan's float expressions
    on the guessed free times: along each arrival's cascade every tier
    must miss the SLO until the guessed one, which must meet it and
    advance its free time as guessed.  The prefix before the first
    disagreement is exact.  A wrong decision ends the block.  A wrong
    free time alone (a busy period that crossed a power of two) does
    not: the scan still admits that arrival, at the free time the
    verification computed, and the guess starts again after it, unless
    it went wrong within ``_STREAK`` arrivals.
    """
    m = arrivals.size
    depth = len(free) - 1
    free = list(free)
    pieces = []
    taken = 0
    while True:
        block = arrivals[taken:]
        size = block.size
        tier = np.full(size, depth)
        ok = np.ones(size, dtype=bool)
        decided = np.ones(size, dtype=bool)
        # Per tier: the block positions offered to it (all of them at
        # first), those it admits, and its free time before each of its
        # admissions and after the last.
        offered: slice | np.ndarray = slice(None)
        admitted: list[np.ndarray | None] = []
        frees: list[np.ndarray] = []
        for p in range(depth + 1):
            times = block[offered]
            if p == depth:
                steps = _lindley_guess(times, free[p], ii[p])
                meets, admits = _admits(
                    times, steps[:-1], steps[1:], ii[p], service_ns[p], slo_ns
                )
                ok[offered] &= admits
                decided[offered] &= meets
                admitted.append(None if p == 0 else offered)
                frees.append(steps)
                break
            # Enough admissions to reach past the last arrival offered.
            headroom = slo_ns - service_ns[p]
            reach = (float(times[-1]) + headroom - free[p]) / ii[p]
            k = int(min(times.size, 1 + max(0.0, reach)))
            steps = np.full(k + 1, ii[p])
            steps[0] = free[p]
            np.add.accumulate(steps, out=steps)
            # The first arrival past each admission's threshold, and at
            # most one admission per arrival.
            picks = np.searchsorted(times, steps[:k] - headroom)
            picks -= _INDEX[:k]
            np.maximum.accumulate(picks, out=picks)
            picks += _INDEX[:k]
            picks = picks[: np.searchsorted(picks, times.size)]
            takes = np.zeros(times.size, dtype=bool)
            takes[picks] = True
            count = np.cumsum(takes)
            after = steps[count]
            count -= takes
            meets, admits = _admits(
                times, steps[count], after, ii[p], service_ns[p], slo_ns
            )
            ok[offered] &= np.where(takes, admits, ~meets)
            decided[offered] &= meets == takes
            if p:
                picks = offered[picks]
            tier[picks] = p
            admitted.append(picks)
            frees.append(steps)
            offered = np.flatnonzero(~takes) if p == 0 else offered[~takes]
            if not offered.size:
                break
        q = int(ok.argmin())
        if ok[q]:
            q = size
        free[: len(frees)] = [
            float(f[q if a is None else np.searchsorted(a, q)])
            for f, a in zip(frees, admitted)
        ]
        pieces.append(tier[:q])
        taken += q
        if q == size or not decided[q]:
            break
        # Only the free time is wrong: the scan's own, after arrival q.
        p = int(tier[q])
        start = free[p]
        t = float(block[q])
        if start < t:
            start = t
        free[p] = start + ii[p]
        pieces.append(tier[q : q + 1])
        taken += 1
        if taken == m or q < _STREAK:
            break
    return np.concatenate(pieces), free


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
    choices are the stable merge of the tiers' keys ``free + service``,
    each advancing by ``ii`` per admission.  Tier ``p`` takes about a
    ``1 / ii[p]`` share of the block, so its row holds that share plus
    slack; its last key is a sentinel, and the merge stops before it.

    That merge is only the guess.  A pick is certified when the next
    merged key, a lower bound on every other tier's key, lies clear of
    the pick's key by more than the float error of the scan's
    comparison; the pick's own tier must be backlogged (where it is
    idle the scan resets its free time to ``t``) and must miss the SLO.
    Near-ties and picks that meet the SLO are recomputed with the
    scan's own float expressions on the free times the guess implies.
    The prefix before the first failure is exact.
    """
    m = arrivals.size
    n = len(free)
    # In exact arithmetic tier p's keys are keys0[p] + k * ii[p], so the
    # block's last merged key solves sum_p (last - keys0[p]) / ii[p] = m.
    keys0 = [f + s for f, s in zip(free, service_ns)]
    last = (m + sum(k / x for k, x in zip(keys0, ii))) / sum(
        1 / x for x in ii
    )
    bounds = [0]
    for k, x in zip(keys0, ii):
        share = int(min(m, max(0.0, (last - k) / x)))
        bounds.append(bounds[-1] + share + _ROW_SLACK)
    # Tier p's free time after k more admissions, built by the same
    # sequential additions the scan performs, and its key.
    steps = np.empty(bounds[-1])
    keys = np.empty(bounds[-1])
    for p in range(n):
        row = steps[bounds[p] : bounds[p + 1]]
        row.fill(ii[p])
        row[0] = free[p]
        np.add.accumulate(row, out=row)
        np.add(row, service_ns[p], out=keys[bounds[p] : bounds[p + 1]])
    # The smallest keys, stable so that equal keys go to the earlier
    # tier, as in the scan; the block ends before the first sentinel.
    merged = np.argsort(keys, kind="stable")[: m + 1]
    label = np.repeat(np.arange(n), np.diff(bounds))
    label[np.asarray(bounds[1:]) - 1] = -1
    tier = label[merged]
    if tier.min() < 0:
        m = int(tier.argmin())
        if not m:
            return tier[:0], list(free)
    tier = tier[:m]
    key = keys[merged]
    free_at = steps[merged[:m]]
    t = arrivals[:m]
    bad = free_at < t
    scale = max(-key[0], key[m], -t.min(), t.max(), max(service_ns))
    # The pick's prediction, and the gap to the next merged key; the
    # buffers are reused, as fresh ones cost more than the arithmetic.
    free_at -= t
    free_at += np.take(service_ns, tier, out=keys[:m])
    recheck = free_at <= slo_ns
    gap = np.subtract(key[1 : m + 1], key[:m], out=free_at)
    recheck |= gap <= _NEAR_TIE * scale
    if recheck.any():
        probe = np.flatnonzero(recheck)
        at = t[probe]
        predicted = np.empty((n, probe.size))
        for p in range(n):
            taken = np.flatnonzero(tier == p)
            start = steps[bounds[p] + np.searchsorted(taken, probe)]
            np.maximum(start, at, out=start)
            predicted[p] = start - at + service_ns[p]
        meets = predicted <= slo_ns
        decided = np.where(
            meets.any(axis=0), meets.argmax(axis=0), predicted.argmin(axis=0)
        )
        bad[probe[decided != tier[probe]]] = True
    q = int(bad.argmax()) if bad.any() else m
    chosen = tier[:q]
    return chosen, [
        float(steps[bounds[p] + np.count_nonzero(chosen == p)])
        for p in range(n)
    ]


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

    The scan is a per-arrival loop that commits cascade runs and
    fallback runs in bulk (see the module docstring).  On the e2e
    benchmark's diurnal cluster stream at 0.8 load, 25.3% of the
    arrivals are direct primary admissions, 3.0% spills through the
    cascade and 71.7% fallbacks; the blocks commit 99.8% of the primary
    admissions and 99.7% of the fallbacks.
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
        primary_ii = ii[primary]
        primary_service_ns = service_ns[primary]
        ranked_ii = [ii[i] for i in order]
        ranked_service_ns = [service_ns[i] for i in order]
        ranked_index = np.array(order, dtype=np.int64)
        slo_ns = slo_ms * 1e6
        size = arrivals.size
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
        blocks = [_BLOCK_MIN] * len(order)
        span = _SPAN_MIN
        while committed + len(out) < size:
            at = committed + len(out)
            # Bulk tries: at the start, and at the end of a span that
            # did not end in a fallback (the fallback path tries its
            # own).  The next arrival's own cascade step says how many
            # tiers miss the SLO; after a full block, at least as many.
            if at == 0 or (out and last_fallback != at):
                if out:
                    pieces.append(np.array(out, dtype=np.int64))
                    out = []
                    append = out.append
                taken = held = 0
                while at < size:
                    t = float(arrivals[at])
                    for depth, i in enumerate(order):
                        start = free[i]
                        if start < t:
                            start = t
                        if start - t + service_ns[i] <= slo_ns:
                            break
                    else:
                        break
                    depth = max(depth, held)
                    offered = min(blocks[depth], size - at)
                    chosen, after = _commit_cascade_run(
                        arrivals[at : at + offered],
                        [free[i] for i in order[: depth + 1]],
                        ranked_ii[: depth + 1],
                        ranked_service_ns[: depth + 1],
                        slo_ns,
                    )
                    step = chosen.size
                    pieces.append(ranked_index[chosen])
                    for i, value in zip(order, after):
                        free[i] = value
                    blocks[depth] = _resized(blocks[depth], offered, step)
                    held = depth if step == offered else 0
                    taken += step
                    at += step
                    if step < _STREAK:
                        break
                committed = at
                if taken >= _BLOCK_MIN:
                    span = _SPAN_MIN
                if at == size:
                    break
            # Timestamps become Python floats a span at a time, so a
            # bulk commit skips converting the arrivals it decides.
            for t in arrivals[at : at + span].tolist():
                start = free[primary]
                if start < t:
                    start = t
                predicted = start - t + primary_service_ns
                if predicted <= slo_ns:
                    append(primary)
                    free[primary] = start + primary_ii
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
                    if streak < need or k == size:
                        continue
                    streak = 0
                    offered = min(block, size - k)
                    chosen, after = _commit_fallback_run(
                        arrivals[k : k + offered],
                        [free[i] for i in order],
                        ranked_ii,
                        ranked_service_ns,
                        slo_ns,
                    )
                    taken = chosen.size
                    block = _resized(block, offered, taken)
                    if taken == offered:
                        need = _STREAK
                    elif taken < _BLOCK_MIN:
                        need *= 2
                    if taken:
                        pieces.append(np.array(out, dtype=np.int64))
                        pieces.append(ranked_index[chosen])
                        committed = k + taken
                        out = []
                        append = out.append
                        for i, value in zip(order, after):
                            free[i] = value
                        span = _SPAN_MIN
                        break
                    continue
                append(i)
                free[i] = start + ii[i]
            else:
                span = min(2 * span, _CHUNK)
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
