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
* a string-keyed **cache-policy registry** mirroring the backend /
  router / scaler / strategy registries: ``lru``, ``lfu`` and
  ``admit-on-second-touch`` ship built in, :func:`register_cache_policy`
  adds plug-ins, :func:`get_cache_policy` resolves names and raises
  :class:`UnknownCachePolicyError` with the available names on a typo.

Each built-in policy replays a trace in one pass over its keys as Python
ints, marking hits in a list that becomes the bool array once: ``lru``
keeps an ``OrderedDict`` in recency order, ``lfu`` evicts from a lazily
refreshed heap of packed (count, last position) ints, and
``admit-on-second-touch`` runs that ``OrderedDict`` LRU behind a ghost
LRU of keys seen once.

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
from collections import OrderedDict
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


class UnknownCachePolicyError(LookupError):
    """Raised when a cache-policy name is not in the registry."""


@runtime_checkable
class CachePolicy(Protocol):
    """One admission/eviction policy simulated over a key trace.

    ``hits`` replays ``keys`` through a cache of ``capacity_rows`` rows
    that starts empty and returns a boolean hit flag per access.  It
    must be a *pure, deterministic* function of its arguments — the tier
    cascade and the serving path rely on replayability for the
    byte-identical ``--json`` guarantees.
    """

    name: str

    def hits(self, keys: np.ndarray, capacity_rows: int) -> np.ndarray:
        """Per-access hit flags for a cold cache of ``capacity_rows``."""
        ...


def _replay_input(keys: np.ndarray, capacity_rows: int) -> list[int]:
    """Validate a replay's capacity and return its keys as Python ints."""
    if capacity_rows <= 0:
        raise ValueError(
            f"capacity_rows must be positive, got {capacity_rows}"
        )
    return np.asarray(keys, dtype=np.int64).ravel().tolist()


class LruPolicy:
    """Least-recently-used with insert-on-miss.

    Replays the trace through an ``OrderedDict`` kept in recency order:
    a hit moves its key to the back, a miss inserts at the back and, once
    past capacity, evicts the front (the least recently used key).
    """

    name = "lru"

    def hits(self, keys: np.ndarray, capacity_rows: int) -> np.ndarray:
        keys_list = _replay_input(keys, capacity_rows)
        flags = [False] * len(keys_list)
        cache: OrderedDict[int, None] = OrderedDict()
        touch, evict = cache.move_to_end, cache.popitem
        for i, key in enumerate(keys_list):
            if key in cache:
                touch(key)
                flags[i] = True
                continue
            cache[key] = None
            if len(cache) > capacity_rows:
                evict(False)
        return np.array(flags, dtype=bool)


class LfuPolicy:
    """Least-frequently-used, LRU within a frequency class.

    Evicts the least recently touched key of the lowest access count; an
    evicted key forgets its count (no ghost history).  Each resident
    key's state is one int packing ``(count << shift) | position`` of its
    last access, so ordering states orders victims.  The eviction heap
    holds one entry per resident key that may lag its state (hits only
    update the dict); a lagging top is refreshed in place, and the first
    top equal to its key's state is the victim.  States only grow, so
    that top is the minimum over every resident key.
    """

    name = "lfu"

    def hits(self, keys: np.ndarray, capacity_rows: int) -> np.ndarray:
        keys_list = _replay_input(keys, capacity_rows)
        shift = len(keys_list).bit_length()
        pos_mask = (1 << shift) - 1
        flags = [False] * len(keys_list)
        state: dict[int, int] = {}
        heap: list[int] = []
        for i, key in enumerate(keys_list):
            entry = state.get(key)
            if entry is not None:
                flags[i] = True
                # count + 1, position i: clear the old position bits by
                # carrying into the count field, then add the new one.
                state[key] = (entry | pos_mask) + 1 + i
                continue
            entry = state[key] = (1 << shift) | i
            if len(heap) < capacity_rows:
                heapq.heappush(heap, entry)
                continue
            while True:
                top = heap[0]
                victim = keys_list[top & pos_mask]
                current = state[victim]
                if current == top:
                    break
                heapq.heapreplace(heap, current)
            del state[victim]
            heapq.heapreplace(heap, entry)
        return np.array(flags, dtype=bool)


class AdmitOnSecondTouchPolicy:
    """LRU with a ghost filter: a row is admitted on its second touch.

    One-hit-wonders (the long Zipf tail) never enter the cache: a miss
    records the key in a ghost LRU of recently seen singletons (same
    capacity as the cache) and only a re-touch while still remembered
    admits the row.  Classic scan-resistant admission (TinyLFU-style
    doorkeeper).
    """

    name = "admit-on-second-touch"

    def hits(self, keys: np.ndarray, capacity_rows: int) -> np.ndarray:
        keys_list = _replay_input(keys, capacity_rows)
        flags = [False] * len(keys_list)
        cache: OrderedDict[int, None] = OrderedDict()
        ghost: OrderedDict[int, None] = OrderedDict()
        touch = cache.move_to_end
        for i, key in enumerate(keys_list):
            if key in cache:
                touch(key)
                flags[i] = True
                continue
            if key in ghost:
                del ghost[key]
                cache[key] = None
                if len(cache) > capacity_rows:
                    cache.popitem(last=False)
            else:
                ghost[key] = None
                if len(ghost) > capacity_rows:
                    ghost.popitem(last=False)
        return np.array(flags, dtype=bool)


# ---------------------------------------------------------------------------
# Cache-policy registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, CachePolicy] = {}


def register_cache_policy(
    policy: CachePolicy, *, replace: bool = False
) -> None:
    """Register a cache policy under ``policy.name``.

    Refuses to overwrite an existing name unless ``replace=True``, so
    plug-ins cannot silently shadow the built-ins.
    """
    name = getattr(policy, "name", None)
    if not isinstance(name, str) or not name:
        raise ValueError(
            f"cache policy {policy!r} needs a non-empty string .name"
        )
    if name in _REGISTRY and not replace:
        raise ValueError(
            f"cache policy {name!r} is already registered; "
            f"pass replace=True to override"
        )
    _REGISTRY[name] = policy


def get_cache_policy(name: str) -> CachePolicy:
    """Look up a registered cache policy by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownCachePolicyError(
            f"unknown cache policy {name!r}; available: "
            f"{', '.join(sorted(_REGISTRY)) or '(none)'}"
        ) from None


def available_cache_policies() -> tuple[str, ...]:
    """Sorted names of every registered cache policy."""
    return tuple(sorted(_REGISTRY))


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
    """One storage tier: a name, a byte capacity, a per-lookup latency."""

    name: str
    capacity_bytes: int
    access_ns: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a tier needs a non-empty name")
        if self.capacity_bytes <= 0:
            raise ValueError(
                f"{self.name}: capacity_bytes must be positive, "
                f"got {self.capacity_bytes}"
            )
        if self.access_ns <= 0:
            raise ValueError(
                f"{self.name}: access_ns must be positive, "
                f"got {self.access_ns}"
            )

    def capacity_rows(self, row_bytes: int) -> int:
        """Whole embedding rows this tier holds (floor division)."""
        if row_bytes <= 0:
            raise ValueError(f"row_bytes must be positive, got {row_bytes}")
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
        if self.row_bytes <= 0:
            raise ValueError(
                f"row_bytes must be positive, got {self.row_bytes}"
            )
        if self.warm_accesses < 0:
            raise ValueError(
                f"warm_accesses must be >= 0, got {self.warm_accesses}"
            )
        if self.sim_queries <= 0:
            raise ValueError(
                f"sim_queries must be positive, got {self.sim_queries}"
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
