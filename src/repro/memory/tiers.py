"""Tiered embedding storage: HBM → DDR → host/SSD with hot-row caching.

The paper keeps the whole embedding working set in on-card memory; at
production scale (ROADMAP: "millions of users") the tables outgrow HBM
and the hot rows must be *cached* there, with DDR and host/SSD behind it.
This module makes hot-row caching a first-class layer:

* :class:`TierSpec` / :class:`TierHierarchy` — named capacity+latency
  tiers, fastest first, sourced from :mod:`repro.memory.spec` and
  :mod:`repro.memory.timing` (see :func:`default_tier_hierarchy`), with
  a cascade simulator that replays a key trace through per-tier caches
  and reports where each lookup was served (:class:`TierLookupStats`);
* a **cache-policy registry** (a :class:`repro.registry.Registry`):
  ``lru``, ``lfu`` and ``admit-on-second-touch`` ship built in,
  :func:`register_cache_policy` adds plug-ins, :func:`get_cache_policy`
  resolves names and raises :class:`UnknownCachePolicyError` with the
  registered names on a typo.

A replay costs what its evictions cost.  A trace with no more distinct
keys than ``capacity_rows`` cannot evict, and is answered in one
vectorised pass from each access's previous touch, found with one packed
``np.sort``: every repeat hits under ``lru`` and ``lfu``, every third and
later touch under ``admit-on-second-touch``.  Otherwise ``lru`` marks
every reuse within ``capacity_rows`` accesses as a hit unvisited and
loops over the rest, tracking only the latest victim's position.

When a trace can evict, ``lfu`` and ``admit-on-second-touch`` replay a
FIFO of keys touched once in which a re-touch promotes the key:
``lfu``'s cache keeps it, the admission ghost lets it go (2Q's
FIFO-then-promote, Johnson & Shasha 1994).  One kernel visits only
first touches and the touch after each miss, and checks its model as it
runs.  The model holds for ``lfu`` while every victim is a key touched
once since it came in, which LFU evicts first whenever one is resident,
and for ``admit-on-second-touch`` until its cache, which holds only
admitted keys, first has to evict.  When the model breaks, ``lfu`` replays the
whole trace with its loop: once-touched residents queue in a ``deque``
in front of a lazily refreshed heap of packed (count, last position)
ints.  ``admit-on-second-touch`` hands the rest of the trace to an
``OrderedDict`` LRU behind a ghost LRU of keys seen once, seeded with
the state the kernel reached.  Every hit flag equals the one the plain
per-key replay gives (``tests/test_memory_tiers.py`` keeps those loops
as its oracles).

Everything above this layer (``PerfEstimate``, the serving surfaces, the
autoscaler, the bench) consumes :class:`TierHierarchy` through
``ServingSurface.attach_tiers`` — see :mod:`repro.runtime.session`.

Plug-in example::

    class GhostArcPolicy:
        name = "ghost-arc"
        def hits(self, keys, capacity_rows):
            ...
    register_cache_policy(GhostArcPolicy())
"""

from __future__ import annotations

import heapq
import math
import numbers
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.metrics import MetricRegistry

from repro.memory.spec import (
    GIB,
    BankKind,
    MemorySystemSpec,
    u280_memory_system,
)
from repro.memory.timing import MemoryTimingModel, default_timing_model
from repro.registry import Registry, UnknownNameError

#: DDR sits behind 2 channels where HBM has 32 pseudo-channels, so under
#: concurrent lookup traffic a DDR access pays a queueing/serialisation
#: penalty on top of the identical DRAM timing (paper section 3.2 uses
#: both interchangeably for latency, but bandwidth differs 16x).
DDR_CONTENTION_FACTOR = 4.0

#: A host-memory / NVMe fetch over PCIe: DMA descriptor + kernel round
#: trip puts it in the ~10 us class, three orders above an HBM access.
DEFAULT_HOST_ACCESS_NS = 12_000.0

#: Default bytes per embedding row payload (a 32-wide fp32 vector).
DEFAULT_ROW_BYTES = 128


class UnknownCachePolicyError(UnknownNameError):
    """Raised when a cache-policy name is not in the registry."""


@runtime_checkable
class CachePolicy(Protocol):
    """One admission/eviction policy simulated over a key trace.

    ``hits`` replays ``keys`` through a cache of ``capacity_rows`` rows
    that starts empty and returns a boolean hit flag per access.  It
    must be a *pure, deterministic* function of its arguments — the tier
    cascade and the serving path rely on replayability for the
    byte-identical ``--json`` guarantees.  The built-in policies take
    only a positive integer ``capacity_rows`` (a numpy integer, not a
    bool) and raise ``ValueError`` naming it otherwise;
    :meth:`TierHierarchy.assign_tiers` rejects a policy that does not
    return exactly one flag per key.
    """

    name: str

    def hits(self, keys: np.ndarray, capacity_rows: int) -> np.ndarray:
        """Per-access hit flags for a cold cache of ``capacity_rows``."""
        ...


def _is_count(value: object, minimum: int = 1) -> bool:
    """True for an int or numpy integer >= ``minimum`` (never a bool)."""
    return (
        isinstance(value, numbers.Integral)
        and not isinstance(value, bool)
        and value >= minimum
    )


def _replay_input(
    keys: np.ndarray, capacity_rows: object
) -> tuple[np.ndarray, int]:
    """Validate a replay's capacity; return its keys as int64 and it."""
    if not _is_count(capacity_rows):
        raise ValueError(
            f"capacity_rows must be a positive integer, got {capacity_rows}"
        )
    return np.asarray(keys, dtype=np.int64).ravel(), int(capacity_rows)


def _touches(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The previous and next touch of each access's key.

    Returns ``(prev, next)``: the position of the key's previous access
    (-1 on a first touch) and of its next one (``keys.size`` after the
    last), int32 while positions fit.  One ``np.sort`` of packed
    ``(key << shift) | position`` values orders the accesses by key,
    then position; keys outside the packable range (negative, or too
    wide to share 63 bits with a position) take a stable argsort.
    """
    n = keys.size
    shift = n.bit_length()
    dtype = np.int32 if n < 2**31 else np.int64
    if n and keys.min() >= 0 and int(keys.max()) < 1 << (63 - shift):
        packed = keys << shift
        packed |= np.arange(n)
        packed.sort()
        order = (packed & ((1 << shift) - 1)).astype(dtype)
        sorted_keys = packed >> shift
        del packed
    else:
        order = np.argsort(keys, kind="stable").astype(dtype)
        sorted_keys = keys[order]
    same = sorted_keys[1:] == sorted_keys[:-1]
    del sorted_keys
    before, after = order[:-1][same], order[1:][same]
    prev = np.full(n, -1, dtype=dtype)
    prev[after] = before
    following = np.full(n, n, dtype=dtype)
    following[before] = after
    return prev, following


def _fifo_with_promotion(
    prev: np.ndarray,
    following: np.ndarray,
    capacity: int,
    *,
    frees_slot: bool,
) -> tuple[list[int], int, int]:
    """Miss positions of a FIFO cache whose re-touched keys are promoted.

    ``prev`` and ``following`` come from :func:`_touches`.  Each miss
    queues its key at the FIFO's tail, first evicting the head when all
    ``capacity`` slots are taken.  The key's next touch finds it either
    evicted, a miss that queues it again, or still queued: it is then
    promoted out of the FIFO for good, keeping its slot, or giving it
    back with ``frees_slot``.  Later touches of a promoted key are left
    unvisited, so the loop visits only first touches, the touch after
    each, and the touch after each re-miss, which waits in a heap.
    Victims leave in queueing order, so, as in :meth:`LruPolicy.hits`,
    only the latest victim's position is kept: a key is still queued iff
    its last miss is later, and each victim is the earliest miss past it
    whose key has not been touched since.

    The model holds while every victim is a queued key and at most
    ``capacity`` keys are promoted, and the replay stops at the first
    access that breaks it: a miss that finds every slot taken by a
    promoted key, or a promotion past the ``capacity``-th (which cannot
    happen while promoted keys keep their slots).  Returns ``(misses,
    stop, queued_from)``: the misses before ``stop``, the position it
    stopped at (``prev.size`` when it ran to the end), and the index in
    ``misses`` of the first miss past the latest victim.
    """
    n = prev.size
    first = np.flatnonzero(prev < 0)
    visit = np.zeros(n, dtype=bool)
    visit[first] = True
    after = following[first]
    visit[after[after < n]] = True
    events = np.flatnonzero(visit).tolist()
    events.append(n)  # sentinel: the pending heap drains before it
    prev_at, next_at = memoryview(prev), memoryview(following)
    release = 1 if frees_slot else 0
    misses: list[int] = []
    pending: list[int] = []  # the touch after each re-miss
    evicted = -1  # last miss of the latest victim
    used = 0
    room = capacity  # promotions left
    j = k = 0
    while True:
        i = events[k]
        if pending and pending[0] < i:
            i = heapq.heappop(pending)
        elif i < n:
            k += 1
        else:
            return misses, n, j
        p = prev_at[i]
        if p > evicted:  # still queued: promote
            if not room:
                return misses, i, j
            room -= 1
            used -= release
            continue
        if p >= 0:  # evicted since its last miss: queue it again
            q = next_at[i]
            if q < n:
                heapq.heappush(pending, q)
        if used == capacity:
            try:
                while next_at[misses[j]] <= i:
                    j += 1
            except IndexError:  # no queued key left to evict
                return misses, i, j
            evicted = misses[j]
            j += 1
        else:
            used += 1
        misses.append(i)


class LruPolicy:
    """Least-recently-used with insert-on-miss.

    A reuse at most ``capacity_rows`` accesses after its key's previous
    touch always hits: at most ``capacity_rows - 1`` distinct keys came
    between (the stack-distance argument), so those hits are set
    vectorised and never visited.  A trace with no more distinct keys
    than ``capacity_rows`` cannot evict, so every repeat hits.

    Otherwise a loop visits first touches and longer reuses.  LRU evicts
    keys in the order of their last touches, so the replay keeps only the
    last victim's position: a visited access hits iff its previous touch
    is later.  Each victim is the earliest position past that one whose
    key is not touched again before the miss.  A victim's last touch is
    at least ``capacity_rows`` accesses older than the miss and its next
    touch is after it, so the scan reads only positions whose next touch
    lies more than ``capacity_rows`` ahead, in order, once.
    """

    name = "lru"

    def hits(self, keys: np.ndarray, capacity_rows: int) -> np.ndarray:
        keys, capacity = _replay_input(keys, capacity_rows)
        prev, following = _touches(keys)
        flags = prev >= 0
        if keys.size - np.count_nonzero(flags) <= capacity:
            return flags
        position = np.arange(keys.size, dtype=prev.dtype)
        flags &= position - prev <= capacity
        visit = np.flatnonzero(~flags)
        visit_prev = prev[visit].tolist()
        victims = np.flatnonzero(following - position > capacity)
        victim_next = following[victims].tolist()
        victims = victims.tolist()
        del prev, following, position  # the loop's lists replace them
        late_hits = []
        evicted = -1  # last touch of the latest victim
        misses = 0
        j = 0
        for i, p in zip(visit.tolist(), visit_prev):
            if p > evicted:
                late_hits.append(i)
                continue
            misses += 1
            if misses > capacity:
                while victim_next[j] <= i:
                    j += 1
                evicted = victims[j]
                j += 1
        flags[late_hits] = True
        return flags


class LfuPolicy:
    """Least-frequently-used, LRU within a frequency class.

    Evicts the least recently touched key of the lowest access count; an
    evicted key forgets its count (no ghost history).  A trace with no
    more distinct keys than ``capacity_rows`` cannot evict, so every
    repeat hits.

    Otherwise, while the cache holds a key touched once since it came
    in, every victim is such a key, the first of them to come in, and a
    resident touched twice is never evicted.  The replay is then a FIFO
    whose re-touched keys are promoted and keep their slot
    (:func:`_fifo_with_promotion`), which stops at the first miss that
    finds every resident promoted.

    When it stops, a loop replays every key from the start.  Each
    resident key's state is one int packing ``(count << shift) |
    position`` of its last access, so ordering states orders victims.
    Residents touched once are always the lowest-count victims and leave
    in insertion order, so they queue in a ``deque``.  An entry touched
    again since it queued moves into the eviction heap when the queue
    reaches it, and the heap is read only once the queue holds no
    once-touched resident.  Heap entries may lag their key's state (hits
    only update the dict); a lagging top is refreshed in place, and the
    first top equal to its key's state is the victim.  States only grow,
    so that top is the minimum over every resident key.
    """

    name = "lfu"

    def hits(self, keys: np.ndarray, capacity_rows: int) -> np.ndarray:
        keys, capacity = _replay_input(keys, capacity_rows)
        prev, following = _touches(keys)
        flags = prev >= 0
        if keys.size - np.count_nonzero(flags) <= capacity:
            return flags
        misses, stop, _ = _fifo_with_promotion(
            prev, following, capacity, frees_slot=False
        )
        if stop == keys.size:
            flags[:] = True
            flags[misses] = False
            return flags
        del prev, following, misses
        keys_list = keys.tolist()
        shift = len(keys_list).bit_length()
        pos_mask = (1 << shift) - 1
        touched_twice = 2 << shift  # the least state of count 2
        flags = [False] * len(keys_list)
        state: dict[int, int] = {}
        once: deque[int] = deque()
        heap: list[int] = []
        for i, key in enumerate(keys_list):
            entry = state.get(key)
            if entry is not None:
                flags[i] = True
                # count + 1, position i: clear the old position bits by
                # carrying into the count field, then add the new one.
                state[key] = (entry | pos_mask) + 1 + i
                continue
            if len(state) == capacity:
                while once:
                    victim = once.popleft()
                    current = state[victim]
                    if current < touched_twice:
                        break
                    heapq.heappush(heap, current)
                else:
                    while True:
                        top = heap[0]
                        victim = keys_list[top & pos_mask]
                        current = state[victim]
                        if current == top:
                            break
                        heapq.heapreplace(heap, current)
                    heapq.heappop(heap)
                del state[victim]
            state[key] = (1 << shift) | i
            once.append(key)
        return np.array(flags, dtype=bool)


class AdmitOnSecondTouchPolicy:
    """LRU with a ghost filter: a row is admitted on its second touch.

    One-hit-wonders (the long Zipf tail) never enter the cache: a miss
    records the key in a ghost LRU of recently seen singletons (same
    capacity as the cache) and only a re-touch while still remembered
    admits the row.  Classic scan-resistant admission (TinyLFU-style
    doorkeeper).

    A trace with no more distinct keys than ``capacity_rows`` evicts
    from neither LRU, so every third and later touch hits.  Otherwise,
    until the cache first has to evict, it holds every admitted key, and
    every touch after an admission hits.  The ghost, whose keys are never
    touched in place, is then a FIFO that admission empties
    (:func:`_fifo_with_promotion`, the promoted key freeing its slot),
    and the touch after each of its misses is a miss too: an admission
    or a re-queue.  The replay stops at the admission past the
    ``capacity_rows``-th and hands the rest of the trace to two
    ``OrderedDict`` LRUs in recency order: the ghost holds the queued
    misses not promoted before the stop, in queueing order, and the
    cache every key whose last touch before the stop was an admission
    or a hit, least recently touched first.
    """

    name = "admit-on-second-touch"

    def hits(self, keys: np.ndarray, capacity_rows: int) -> np.ndarray:
        keys, capacity = _replay_input(keys, capacity_rows)
        prev, following = _touches(keys)
        n = keys.size
        repeat = prev >= 0
        if n - np.count_nonzero(repeat) <= capacity:
            flags = np.zeros(n, dtype=bool)
            flags[repeat] = repeat[prev[repeat]]
            return flags
        misses, stop, queued_from = _fifo_with_promotion(
            prev, following, capacity, frees_slot=True
        )
        misses = np.array(misses, dtype=prev.dtype)
        retouched = following[misses]
        flags = np.ones(n, dtype=bool)
        flags[misses] = False
        flags[retouched[retouched < n]] = False
        if stop == n:
            return flags
        # Hand over to the loop with the state the replay reached.  A
        # key whose last touch before the stop was not a ghost miss was
        # admitted, and is cached.
        queued = misses[queued_from:]
        ghost = keys[queued[following[queued] >= stop]]
        last = np.flatnonzero(following[:stop] >= stop)
        missed = np.zeros(stop, dtype=bool)
        missed[misses] = True
        cached = keys[last[~missed[last]]]
        del prev, following, misses, retouched, last, missed
        cache = OrderedDict.fromkeys(cached.tolist())
        ghost = OrderedDict.fromkeys(ghost.tolist())
        touch = cache.move_to_end
        tail = [False] * (n - stop)
        for i, key in enumerate(keys[stop:].tolist()):
            if key in cache:
                touch(key)
                tail[i] = True
                continue
            if key in ghost:
                del ghost[key]
                cache[key] = None
                if len(cache) > capacity:
                    cache.popitem(last=False)
            else:
                ghost[key] = None
                if len(ghost) > capacity:
                    ghost.popitem(last=False)
        flags[stop:] = tail
        return flags


# ---------------------------------------------------------------------------
# Cache-policy registry
# ---------------------------------------------------------------------------

_REGISTRY: Registry[CachePolicy] = Registry(
    "cache policy", "policies", UnknownCachePolicyError
)
register_cache_policy = _REGISTRY.register
get_cache_policy = _REGISTRY.get
available_cache_policies = _REGISTRY.names


DEFAULT_CACHE_POLICIES: tuple[CachePolicy, ...] = (
    LruPolicy(),
    LfuPolicy(),
    AdmitOnSecondTouchPolicy(),
)

for _policy in DEFAULT_CACHE_POLICIES:
    register_cache_policy(_policy)


# ---------------------------------------------------------------------------
# Tiers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TierSpec:
    """One storage tier: a name, a byte capacity, a per-lookup latency.

    ``capacity_bytes`` must be a positive integer and ``access_ns`` a
    positive, finite number; anything else raises ``ValueError`` naming
    the tier and the field.
    """

    name: str
    capacity_bytes: int
    access_ns: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a tier needs a non-empty name")
        if not _is_count(self.capacity_bytes):
            raise ValueError(
                f"{self.name}: capacity_bytes must be a positive integer, "
                f"got {self.capacity_bytes}"
            )
        if not (math.isfinite(self.access_ns) and self.access_ns > 0):
            raise ValueError(
                f"{self.name}: access_ns must be positive and finite, "
                f"got {self.access_ns}"
            )

    def capacity_rows(self, row_bytes: int) -> int:
        """Whole embedding rows this tier holds (floor division)."""
        if not _is_count(row_bytes):
            raise ValueError(
                f"row_bytes must be a positive integer, got {row_bytes}"
            )
        return self.capacity_bytes // row_bytes


@dataclass(frozen=True)
class TierLookupStats:
    """Where a key trace's lookups were served, tier by tier."""

    tiers: tuple[str, ...]
    access_ns: tuple[float, ...]
    served: tuple[int, ...]

    @property
    def accesses(self) -> int:
        return sum(self.served)

    @property
    def hit_rate(self) -> float:
        """Fraction served by the fastest (hot) tier; 0.0 when empty."""
        total = self.accesses
        return self.served[0] / total if total else 0.0

    @property
    def tier_fractions(self) -> tuple[float, ...]:
        total = self.accesses
        if not total:
            return tuple(0.0 for _ in self.served)
        return tuple(count / total for count in self.served)

    @property
    def effective_ns(self) -> float:
        """Hit-rate-weighted blend of the tier latencies; 0.0 when empty."""
        return float(
            sum(
                frac * ns
                for frac, ns in zip(self.tier_fractions, self.access_ns)
            )
        )

    def as_dict(self) -> dict[str, object]:
        return {
            "accesses": self.accesses,
            "hit_rate": self.hit_rate,
            "effective_ns": self.effective_ns,
            "tiers": {
                name: {"served": served, "fraction": frac, "access_ns": ns}
                for name, served, frac, ns in zip(
                    self.tiers,
                    self.served,
                    self.tier_fractions,
                    self.access_ns,
                )
            },
        }


@dataclass(frozen=True)
class TierHierarchy:
    """An ordered memory hierarchy with per-tier hot-row caches.

    ``tiers`` runs fastest-first; every tier except the last acts as a
    cache (simulated under ``policy``) and the last is the backstop
    that always serves.  ``warm_accesses`` is the steady-state warm-up
    trace length replayed before measuring a "warm" surface, and
    ``sim_queries`` caps how many queries a serving simulation draws
    per-lookup keys for (the penalty pattern tiles across longer
    streams) so tiering stays affordable at high rates.
    """

    tiers: tuple[TierSpec, ...]
    row_bytes: int = DEFAULT_ROW_BYTES
    policy: str = "lru"
    warm_accesses: int = 8192
    sim_queries: int = 2048

    def __post_init__(self) -> None:
        if len(self.tiers) < 2:
            raise ValueError(
                f"a hierarchy needs at least 2 tiers (a hot cache and a "
                f"backstop), got {len(self.tiers)}"
            )
        names = [t.name for t in self.tiers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tier names: {names}")
        latencies = [t.access_ns for t in self.tiers]
        if any(b <= a for a, b in zip(latencies, latencies[1:])):
            raise ValueError(
                "tier access latencies must be strictly increasing "
                f"fastest-first, got {latencies}"
            )
        if not _is_count(self.row_bytes):
            raise ValueError(
                f"row_bytes must be a positive integer, got {self.row_bytes}"
            )
        if not _is_count(self.warm_accesses, 0):
            raise ValueError(
                "warm_accesses must be an integer >= 0, "
                f"got {self.warm_accesses}"
            )
        if not _is_count(self.sim_queries):
            raise ValueError(
                "sim_queries must be a positive integer, "
                f"got {self.sim_queries}"
            )
        for tier in self.tiers[:-1]:
            if tier.capacity_rows(self.row_bytes) < 1:
                raise ValueError(
                    f"tier {tier.name!r} holds no whole row "
                    f"({tier.capacity_bytes} B at {self.row_bytes} B/row)"
                )
        get_cache_policy(self.policy)  # fail fast on a typo

    @property
    def hot(self) -> TierSpec:
        return self.tiers[0]

    @property
    def backstop(self) -> TierSpec:
        return self.tiers[-1]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.tiers)

    @property
    def tier_access_ns(self) -> tuple[float, ...]:
        return tuple(t.access_ns for t in self.tiers)

    def capacity_rows(self) -> tuple[int, ...]:
        return tuple(t.capacity_rows(self.row_bytes) for t in self.tiers)

    def assign_tiers(self, keys: np.ndarray) -> np.ndarray:
        """Which tier serves each access of ``keys`` (caches cold).

        Cascade: the hot tier's cache sees the full trace; each miss
        stream feeds the next tier's cache; the backstop serves the
        rest.  Returns one tier index per access.
        """
        keys = np.asarray(keys, dtype=np.int64).ravel()
        assigned = np.full(keys.size, len(self.tiers) - 1, dtype=np.int64)
        policy = get_cache_policy(self.policy)
        remaining_keys = keys
        remaining_pos = np.arange(keys.size, dtype=np.int64)
        for index, tier in enumerate(self.tiers[:-1]):
            if remaining_keys.size == 0:
                break
            hit = np.asarray(
                policy.hits(
                    remaining_keys, tier.capacity_rows(self.row_bytes)
                ),
                dtype=bool,
            )
            if hit.shape != remaining_keys.shape:
                raise ValueError(
                    f"cache policy {policy.name!r} must return one hit "
                    f"flag per key: got shape {hit.shape} for "
                    f"{remaining_keys.size} keys"
                )
            assigned[remaining_pos[hit]] = index
            remaining_keys = remaining_keys[~hit]
            remaining_pos = remaining_pos[~hit]
        return assigned

    def simulate(
        self,
        keys: np.ndarray,
        *,
        warmup_keys: np.ndarray | None = None,
        metrics: "MetricRegistry | None" = None,
    ) -> TierLookupStats:
        """Tier-by-tier serve counts for ``keys``.

        ``warmup_keys`` are replayed first to pre-warm every cache but
        are excluded from the reported stats — pass a steady-state
        prefix for "warm" numbers, nothing for "cold" numbers.

        ``metrics`` (a :class:`~repro.telemetry.MetricRegistry`)
        additionally feeds per-tier hit/miss counters: each tier's
        serves count as ``tiers.hits.<tier>``, and every lookup the
        hot tier could not answer counts as ``tiers.misses.<hot>``.
        The returned stats are identical with or without it.
        """
        keys = np.asarray(keys, dtype=np.int64).ravel()
        if warmup_keys is not None and np.asarray(warmup_keys).size:
            warmup = np.asarray(warmup_keys, dtype=np.int64).ravel()
            assigned = self.assign_tiers(
                np.concatenate([warmup, keys])
            )[warmup.size:]
        else:
            assigned = self.assign_tiers(keys)
        served = np.bincount(assigned, minlength=len(self.tiers))
        stats = TierLookupStats(
            tiers=self.names,
            access_ns=self.tier_access_ns,
            served=tuple(int(c) for c in served),
        )
        if metrics is not None:
            for name, count in zip(self.names, stats.served):
                metrics.counter(f"tiers.hits.{name}").inc(count)
            metrics.counter(f"tiers.misses.{self.hot.name}").inc(
                stats.accesses - stats.served[0]
            )
        return stats

    def penalty_ns(self, assigned: np.ndarray) -> np.ndarray:
        """Per-access latency added over an all-hot-tier lookup."""
        access = np.asarray(self.tier_access_ns, dtype=np.float64)
        return access[np.asarray(assigned, dtype=np.int64)] - access[0]

    def as_dict(self) -> dict[str, object]:
        return {
            "policy": self.policy,
            "row_bytes": self.row_bytes,
            "warm_accesses": self.warm_accesses,
            "tiers": [
                {
                    "name": t.name,
                    "capacity_bytes": t.capacity_bytes,
                    "capacity_rows": t.capacity_rows(self.row_bytes),
                    "access_ns": t.access_ns,
                }
                for t in self.tiers
            ],
        }


def default_tier_hierarchy(
    *,
    row_bytes: int = DEFAULT_ROW_BYTES,
    policy: str = "lru",
    memory: MemorySystemSpec | None = None,
    timing: MemoryTimingModel | None = None,
    host_capacity_bytes: int = 1024 * GIB,
    host_access_ns: float = DEFAULT_HOST_ACCESS_NS,
) -> TierHierarchy:
    """The U280 card's real hierarchy: HBM → DDR → host/SSD.

    Capacities come straight from :func:`u280_memory_system` (32 x
    256 MiB HBM, 2 x 16 GiB DDR4); tier latencies from the paper's DRAM
    timing model, with DDR scaled by :data:`DDR_CONTENTION_FACTOR` for
    its 16x narrower channel count and the host tier at PCIe/NVMe
    latency.
    """
    memory = memory if memory is not None else u280_memory_system()
    timing = timing if timing is not None else default_timing_model()
    dram_ns = timing.dram_access_ns(row_bytes)
    hbm_bytes = sum(
        b.capacity_bytes for b in memory.banks_of(BankKind.HBM)
    )
    ddr_bytes = sum(
        b.capacity_bytes for b in memory.banks_of(BankKind.DDR)
    )
    return TierHierarchy(
        tiers=(
            TierSpec("hbm", hbm_bytes, dram_ns),
            TierSpec("ddr", ddr_bytes, dram_ns * DDR_CONTENTION_FACTOR),
            TierSpec("host", host_capacity_bytes, host_access_ns),
        ),
        row_bytes=row_bytes,
        policy=policy,
    )


def scaled_tier_hierarchy(
    working_set_rows: int,
    *,
    row_bytes: int = DEFAULT_ROW_BYTES,
    policy: str = "lru",
    hot_fraction: float = 0.125,
    warm_fraction: float = 0.5,
    timing: MemoryTimingModel | None = None,
    host_access_ns: float = DEFAULT_HOST_ACCESS_NS,
    warm_accesses: int = 8192,
    sim_queries: int = 2048,
) -> TierHierarchy:
    """A hierarchy scaled to a working set that outgrows the hot tier.

    The "millions of users" scenario in miniature: the hot tier holds
    ``hot_fraction`` of the working set, the mid tier ``warm_fraction``,
    and the backstop holds everything.  Latencies keep the real U280
    ratios (see :func:`default_tier_hierarchy`), so hit rates — not
    absolute capacities — carry the behaviour, which keeps simulations
    laptop-sized.
    """
    if working_set_rows <= 0:
        raise ValueError(
            f"working_set_rows must be positive, got {working_set_rows}"
        )
    if not 0 < hot_fraction < warm_fraction:
        raise ValueError(
            "need 0 < hot_fraction < warm_fraction, got "
            f"{hot_fraction} and {warm_fraction}"
        )
    timing = timing if timing is not None else default_timing_model()
    dram_ns = timing.dram_access_ns(row_bytes)
    hot_rows = max(1, int(working_set_rows * hot_fraction))
    warm_rows = max(hot_rows + 1, int(working_set_rows * warm_fraction))
    return TierHierarchy(
        tiers=(
            TierSpec("hbm", hot_rows * row_bytes, dram_ns),
            TierSpec(
                "ddr",
                warm_rows * row_bytes,
                dram_ns * DDR_CONTENTION_FACTOR,
            ),
            TierSpec(
                "host",
                max(working_set_rows, warm_rows + 1) * row_bytes,
                host_access_ns,
            ),
        ),
        row_bytes=row_bytes,
        policy=policy,
        warm_accesses=warm_accesses,
        sim_queries=sim_queries,
    )
