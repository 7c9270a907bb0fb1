"""Tests for the tiered-storage layer: policies, hierarchy, popularity."""

import heapq
import zlib
from collections import OrderedDict
from typing import ClassVar

import numpy as np
import pytest

from repro.memory.spec import BankKind, u280_memory_system
from repro.memory.tiers import (
    DDR_CONTENTION_FACTOR,
    DEFAULT_HOST_ACCESS_NS,
    DEFAULT_ROW_BYTES,
    CachePolicy,
    TierHierarchy,
    TierSpec,
    UnknownCachePolicyError,
    _fifo_with_promotion,
    _touches,
    available_cache_policies,
    default_tier_hierarchy,
    get_cache_policy,
    register_cache_policy,
    scaled_tier_hierarchy,
)
from repro.memory.timing import default_timing_model
from repro.models.distributions import zipf_indices
from repro.serving.popularity import PopularityModel


def two_tiers(capacity_rows=4, policy="lru", **knobs):
    return TierHierarchy(
        tiers=(
            TierSpec("hot", capacity_rows * 16, 10.0),
            TierSpec("cold", 1 << 30, 100.0),
        ),
        row_bytes=16,
        policy=policy,
        **knobs,
    )


class TestPolicyRegistry:
    def test_builtins_registered_sorted(self):
        names = available_cache_policies()
        assert names == tuple(sorted(names))
        assert {"lru", "lfu", "admit-on-second-touch"} <= set(names)

    def test_get_returns_protocol_instances(self):
        for name in available_cache_policies():
            policy = get_cache_policy(name)
            assert isinstance(policy, CachePolicy)
            assert policy.name == name

    def test_unknown_name_raises_with_listing(self):
        with pytest.raises(UnknownCachePolicyError, match="lru"):
            get_cache_policy("belady")
        # The error is a LookupError, like the sibling registries.
        assert issubclass(UnknownCachePolicyError, LookupError)

    def test_register_guards_duplicates_and_bad_names(self):
        class Fake:
            name = "lru"

            def hits(self, keys, capacity_rows):
                return np.zeros(np.asarray(keys).size, dtype=bool)

        with pytest.raises(ValueError, match="already registered"):
            register_cache_policy(Fake())
        with pytest.raises(ValueError, match="name"):
            bad = Fake()
            bad.name = ""
            register_cache_policy(bad)

    def test_plugin_registration_round_trip(self):
        from repro.memory import tiers as tiers_module

        class AlwaysMiss:
            name = "test-always-miss"

            def hits(self, keys, capacity_rows):
                return np.zeros(np.asarray(keys).size, dtype=bool)

        register_cache_policy(AlwaysMiss())
        try:
            assert "test-always-miss" in available_cache_policies()
            hierarchy = two_tiers(policy="test-always-miss")
            stats = hierarchy.simulate(np.array([1, 1, 1, 1]))
            assert stats.hit_rate == 0.0
        finally:
            del tiers_module._REGISTRY.entries["test-always-miss"]

    def test_plugin_must_flag_every_key(self):
        from repro.memory import tiers as tiers_module

        class ThreeFlags:
            name = "test-three-flags"

            def hits(self, keys, capacity_rows):
                return np.zeros(3, dtype=bool)

        register_cache_policy(ThreeFlags())
        try:
            hierarchy = two_tiers(policy="test-three-flags")
            with pytest.raises(
                ValueError,
                match="'test-three-flags' must return one hit flag per "
                r"key: got shape \(3,\) for 10 keys",
            ):
                hierarchy.simulate(np.arange(10))
        finally:
            del tiers_module._REGISTRY.entries["test-three-flags"]


class TestPolicies:
    def test_lru_hand_trace(self):
        hits = get_cache_policy("lru").hits(
            np.array([1, 1, 2, 3, 1]), capacity_rows=2
        )
        # 3 evicts 1 (LRU), so the final touch of 1 misses.
        assert hits.tolist() == [False, True, False, False, False]

    def test_lfu_protects_frequent_keys(self):
        # Key 1 is touched often; a scan of singletons must not evict it.
        trace = np.array([1, 1, 1, 2, 3, 4, 5, 6, 1])
        hits = get_cache_policy("lfu").hits(trace, capacity_rows=2)
        assert bool(hits[-1])
        lru_hits = get_cache_policy("lru").hits(trace, capacity_rows=2)
        assert not bool(lru_hits[-1])

    def test_admit_on_second_touch_filters_singletons(self):
        policy = get_cache_policy("admit-on-second-touch")
        # First touch: ghost only.  Second: admitted.  Third: hit.
        hits = policy.hits(np.array([7, 7, 7]), capacity_rows=2)
        assert hits.tolist() == [False, False, True]

    def test_scan_resistance_orders_policies(self):
        # Under a one-hit-wonder scan mixed with a hot key, the
        # admission filter keeps the hot key resident.
        rng = np.random.default_rng(5)
        scan = rng.integers(100, 100_000, size=600)
        trace = np.empty(1200, dtype=np.int64)
        trace[0::2] = 1  # hot key every other access
        trace[1::2] = scan
        admit = get_cache_policy("admit-on-second-touch").hits(trace, 4)
        assert np.count_nonzero(admit[0::2]) >= 598

    @pytest.mark.parametrize("name", ["lru", "lfu", "admit-on-second-touch"])
    def test_capacity_validation(self, name):
        with pytest.raises(ValueError, match="capacity_rows"):
            get_cache_policy(name).hits(np.array([1]), 0)

    @pytest.mark.parametrize(
        "capacity",
        [float("nan"), float("inf"), 1.5, 2.0, True, np.True_, -1, "3"],
        ids=repr,
    )
    @pytest.mark.parametrize("name", ["lru", "lfu", "admit-on-second-touch"])
    def test_capacity_must_be_a_positive_integer(self, name, capacity):
        with pytest.raises(
            ValueError, match="capacity_rows must be a positive integer"
        ):
            get_cache_policy(name).hits(np.array([1, 2, 1, 3, 1]), capacity)

    @pytest.mark.parametrize("name", ["lru", "lfu", "admit-on-second-touch"])
    def test_numpy_integer_capacity_equals_int(self, name):
        keys = np.random.default_rng(4).integers(0, 40, size=500)
        policy = get_cache_policy(name)
        expected = policy.hits(keys, 7)
        for capacity in (np.int64(7), np.int32(7), np.uint16(7)):
            assert np.array_equal(policy.hits(keys, capacity), expected)

    @pytest.mark.parametrize("name", ["lru", "lfu", "admit-on-second-touch"])
    def test_deterministic_replay(self, name):
        rng = np.random.default_rng(2)
        keys = rng.integers(0, 500, size=3000)
        policy = get_cache_policy(name)
        assert np.array_equal(policy.hits(keys, 64), policy.hits(keys, 64))


def _stack_distance_lru(keys, capacity_rows):
    """LRU from its stack-distance definition, one access at a time.

    Access ``i`` hits iff its key occurred before, last at ``p``, and
    fewer than ``capacity_rows`` distinct keys appeared strictly between
    ``p`` and ``i``.  Each such key is counted once, at its first access
    after ``p``: the one whose own previous occurrence is ``<= p``.
    """
    keys = np.asarray(keys, dtype=np.int64)
    prev = np.full(keys.size, -1, dtype=np.int64)
    last: dict[int, int] = {}
    for i, key in enumerate(keys.tolist()):
        prev[i] = last.get(key, -1)
        last[key] = i
    flags = np.zeros(keys.size, dtype=bool)
    for i, p in enumerate(prev.tolist()):
        if p >= 0:
            flags[i] = np.count_nonzero(prev[p + 1:i] <= p) < capacity_rows
    return flags


def _reference_lfu(keys: np.ndarray, capacity_rows: int) -> np.ndarray:
    """The frequency-bucket LFU the heap replay replaced, verbatim."""
    if capacity_rows <= 0:
        raise ValueError(
            f"capacity_rows must be positive, got {capacity_rows}"
        )
    keys_list = np.asarray(keys, dtype=np.int64).ravel().tolist()
    out = np.zeros(len(keys_list), dtype=bool)
    freq: dict[int, int] = {}
    buckets: dict[int, OrderedDict[int, None]] = {}
    min_freq = 0
    for i, key in enumerate(keys_list):
        count = freq.get(key)
        if count is not None:
            out[i] = True
            bucket = buckets[count]
            del bucket[key]
            if not bucket:
                del buckets[count]
                if min_freq == count:
                    min_freq = count + 1
            freq[key] = count + 1
            buckets.setdefault(count + 1, OrderedDict())[key] = None
            continue
        if len(freq) >= capacity_rows:
            victims = buckets[min_freq]
            victim, _ = victims.popitem(last=False)
            if not victims:
                del buckets[min_freq]
            del freq[victim]
        freq[key] = 1
        buckets.setdefault(1, OrderedDict())[key] = None
        min_freq = 1
    return out


def _reference_replay_input(keys: np.ndarray, capacity_rows: int) -> list[int]:
    """Validate a replay's capacity and return its keys as Python ints."""
    if capacity_rows <= 0:
        raise ValueError(
            f"capacity_rows must be positive, got {capacity_rows}"
        )
    return np.asarray(keys, dtype=np.int64).ravel().tolist()


def _reference_lru(keys: np.ndarray, capacity_rows: int) -> np.ndarray:
    """The ``OrderedDict`` LRU the reuse-distance replay replaced, verbatim."""
    keys_list = _reference_replay_input(keys, capacity_rows)
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


def _reference_lfu_heap(keys: np.ndarray, capacity_rows: int) -> np.ndarray:
    """The all-heap LFU the once-touched queue replaced, verbatim."""
    keys_list = _reference_replay_input(keys, capacity_rows)
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


def _reference_admit_on_second_touch(
    keys: np.ndarray, capacity_rows: int
) -> np.ndarray:
    """The ``OrderedDict`` cache-behind-a-ghost loop, for every trace."""
    keys_list = _reference_replay_input(keys, capacity_rows)
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


#: The loops each policy's replay replaced: the flags must not move.
ORACLES = {
    "lru": _reference_lru,
    "lfu": _reference_lfu_heap,
    "admit-on-second-touch": _reference_admit_on_second_touch,
}

#: Independent definitions, checked alongside where one exists.
DEFINITIONS = {"lru": _stack_distance_lru, "lfu": _reference_lfu}


def _assert_matches_oracles(name, keys, capacity):
    got = get_cache_policy(name).hits(keys, capacity)
    assert got.dtype == bool and got.shape == keys.shape
    for oracle in (ORACLES[name], DEFINITIONS.get(name)):
        if oracle is not None:
            assert np.array_equal(got, oracle(keys, capacity)), (
                oracle.__name__,
                keys.tolist() if keys.size <= 100 else keys.size,
                capacity,
            )


#: Whether a promoted key frees its slot, for each policy that replays
#: through the FIFO kernel.
FIFO_FREES_SLOT = {"lfu": False, "admit-on-second-touch": True}


def _fifo_stop(name, keys, capacity):
    """Where the FIFO replay of ``name`` stops on ``keys``: the first
    access its model cannot answer, or ``keys.size`` at the end."""
    keys = np.asarray(keys, dtype=np.int64)
    return _fifo_with_promotion(
        *_touches(keys), capacity, frees_slot=FIFO_FREES_SLOT[name]
    )[1]


def _tiered_zipf_trace(size=450_560):
    """Keys as tiered-zipf replays them: Zipf(1.05) over the small model
    at --max-rows 4096 (143,442 rows).  A build replays 450,560 (65,536
    warm-up accesses and 8,192 queries of 47 lookups), a serve op about
    170,000 cold or 240,000 behind the same warm-up."""
    return PopularityModel(rows=143_442, alpha=1.05).sample(
        np.random.default_rng(7), size
    )


def _small_traces(count=3000, seed=11):
    """Seeded (keys, capacity) pairs: universe 1-15, capacity 1-12,
    length 0-80, so evictions, ties and re-admissions are all common."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        universe = int(rng.integers(1, 16))
        capacity = int(rng.integers(1, 13))
        length = int(rng.integers(0, 81))
        yield rng.integers(0, universe, size=length), capacity


def _repeat_traces(excess, count=400, seed=15):
    """Seeded (keys, capacity) pairs whose repeated keys (touched twice
    or more) number ``capacity + excess``, with more distinct keys than
    ``capacity`` so that every trace evicts.

    The first is the worst case for a FIFO of once-touched keys: every
    repeated key touched twice in a row before any singleton arrives.
    """
    capacity = 3
    repeated = capacity + excess
    keys = np.repeat(np.arange(repeated), 2)
    singles = np.arange(repeated, repeated + 4)
    yield np.concatenate([keys, singles, keys]), capacity
    rng = np.random.default_rng(seed)
    for _ in range(count):
        capacity = int(rng.integers(1, 13))
        repeated = capacity + excess
        singles = int(rng.integers(max(1, 1 - excess), 2 * capacity + 2))
        touches = rng.integers(2, 6, size=repeated)
        keys = np.concatenate(
            [
                np.repeat(np.arange(repeated), touches),
                np.arange(repeated, repeated + singles),
            ]
        )
        yield rng.permutation(keys), capacity


class TestPolicyExactness:
    """Each replay against the loop it replaced and, where one exists,
    an independent definition of the policy."""

    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_small_traces_match_oracle(self, name):
        for keys, capacity in _small_traces():
            _assert_matches_oracles(name, keys, capacity)

    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_zipf_trace_at_hot_tier_capacity_matches_oracle(self, name):
        # 143,442 rows is the small model at --max-rows 4096; a 12.5%
        # hot tier holds 17,930 of them, and this trace touches 23,418
        # distinct keys, so the hot tier evicts.
        keys = zipf_indices(np.random.default_rng(3), 143_442, 100_000, 1.05)
        assert np.unique(keys).size > 17_930
        _assert_matches_oracles(name, keys, 17_930)

    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_build_trace_cascade_matches_oracle(self, name):
        # Hot tier (17,930 rows) evicts; the DDR tier (71,721 rows) sees
        # more keys than it holds but no more distinct ones, so every
        # policy answers it in one pass.
        hierarchy = scaled_tier_hierarchy(143_442, policy=name)
        hot, ddr = hierarchy.capacity_rows()[:2]
        keys = _tiered_zipf_trace()
        hot_hits = ORACLES[name](keys, hot)
        misses = keys[~hot_hits]
        assert misses.size > ddr >= np.unique(misses).size
        ddr_hits = ORACLES[name](misses, ddr)
        expected = np.full(keys.size, 2)
        expected[hot_hits] = 0
        expected[np.flatnonzero(~hot_hits)[ddr_hits]] = 1
        assert np.array_equal(hierarchy.assign_tiers(keys), expected)

    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_ddr_miss_stream_that_cannot_evict_matches_oracle(self, name):
        # A serve-sized stream: the hot tier's misses fit the DDR tier,
        # so every policy answers it in one vectorised pass.
        hierarchy = scaled_tier_hierarchy(143_442, policy=name)
        hot, ddr = hierarchy.capacity_rows()[:2]
        keys = _tiered_zipf_trace(120_000)
        misses = keys[~ORACLES[name](keys, hot)]
        assert 0 < misses.size <= ddr
        _assert_matches_oracles(name, misses, ddr)

    #: The least capacity from which each FIFO replay of the trace below
    #: runs to the end; one row fewer stops it inside the trace.
    FIFO_RUNS_FROM: ClassVar[dict[str, int]] = {
        "lfu": 82,
        "admit-on-second-touch": 791,
    }

    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_capacity_at_the_no_eviction_boundaries(self, name):
        # Every policy answers in one pass up to the distinct-key count.
        # Past it lfu and admit-on-second-touch replay the FIFO, which on
        # this trace stops inside it below a capacity of its own and runs
        # to the end from there: test each boundary from both sides.
        keys = zipf_indices(np.random.default_rng(8), 3_000, 6_000, 0.9)
        distinct = np.unique(keys).size
        assert distinct == 1_701
        runs_from = self.FIFO_RUNS_FROM.get(name)
        if runs_from is not None:
            assert _fifo_stop(name, keys, runs_from - 1) < keys.size
            assert _fifo_stop(name, keys, runs_from) == keys.size
        for boundary in (*self.FIFO_RUNS_FROM.values(), distinct):
            for capacity in (boundary - 1, boundary):
                _assert_matches_oracles(name, keys, capacity)

    @pytest.mark.parametrize("name", sorted(ORACLES))
    @pytest.mark.parametrize("excess", [-1, 0, 1])
    def test_repeated_keys_around_capacity_match_oracle(self, name, excess):
        # One repeated key fewer than the cache holds, as many, and one
        # more, on traces that always evict.  With fewer, lfu's cache
        # always holds a key touched once, and with no more, the cache of
        # admit-on-second-touch never evicts, so the FIFO replay runs to
        # the end; past either bound the first trace stops it.
        bound = {"lfu": -1, "admit-on-second-touch": 0}.get(name)
        for trace, (keys, capacity) in enumerate(_repeat_traces(excess)):
            _, counts = np.unique(keys, return_counts=True)
            assert np.count_nonzero(counts > 1) == capacity + excess
            assert counts.size > capacity
            if bound is not None and (excess <= bound or trace == 0):
                runs = _fifo_stop(name, keys, capacity) == keys.size
                assert runs == (excess <= bound)
            _assert_matches_oracles(name, keys, capacity)

    @pytest.mark.parametrize("name", ["admit-on-second-touch", "lfu"])
    @pytest.mark.parametrize("size", [170_000, 240_000])
    def test_serve_op_traces_match_oracle(self, name, size):
        # A cold and a warm serve op's hot-tier trace: more distinct keys
        # than the 17,930 hot rows, and the FIFO replays of lfu and
        # admit-on-second-touch run to the end.
        keys = _tiered_zipf_trace(size)
        assert np.unique(keys).size > 17_930
        assert _fifo_stop(name, keys, 17_930) == keys.size
        _assert_matches_oracles(name, keys, 17_930)

    @pytest.mark.parametrize(
        ("keys", "capacity", "stop"),
        [
            # The earliest a cache of 3 rows can evict: the fourth
            # admission, after four keys touched twice in a row.
            ([0, 0, 1, 1, 2, 2, 3, 3, 0, 4, 4, 1, 3, 2, 0], 3, 7),
            # Mid-trace: 5 leaves the ghost before the stop, 6 is queued
            # across it, and the hit on 0 makes 1 the cache's LRU key.
            ([5, 0, 0, 1, 1, 0, 6, 2, 2, 7, 1, 0, 6, 1, 2, 0], 2, 8),
            # On the last access.
            ([4, 0, 0, 5, 1, 1, 0, 6, 4, 2, 2], 2, 10),
        ],
    )
    def test_second_touch_hands_over_at_the_first_eviction(
        self, keys, capacity, stop
    ):
        keys = np.array(keys)
        assert _fifo_stop("admit-on-second-touch", keys, capacity) == stop
        _assert_matches_oracles("admit-on-second-touch", keys, capacity)

    def test_lfu_loops_once_every_resident_is_promoted(self):
        # Both rows hold keys touched twice when 2 misses, so LFU evicts
        # a promoted key (0, touched least recently) and the FIFO replay
        # stops there.  A Zipf(0.8) trace stops it at 64 rows, late.
        keys = np.array([0, 0, 1, 1, 2, 1, 0, 2, 3, 0])
        assert _fifo_stop("lfu", keys, 2) == 4
        _assert_matches_oracles("lfu", keys, 2)
        zipf = zipf_indices(np.random.default_rng(10), 20_000, 50_000, 0.8)
        assert _fifo_stop("lfu", zipf, 64) == 38_465
        assert _fifo_stop("lfu", zipf, 512) == zipf.size
        for capacity in (64, 512):
            _assert_matches_oracles("lfu", zipf, capacity)

    @pytest.mark.parametrize("name", sorted(ORACLES))
    @pytest.mark.parametrize(
        "offset", [-(2**40), -5, 2**40, 2**62, np.iinfo(np.int64).max - 20]
    )
    def test_keys_outside_the_packable_range_match_oracle(self, name, offset):
        # Negative keys, and keys too wide to share 63 bits with a
        # position (2**62 and up), take the stable argsort in place of
        # the packed sort; 2**40 still packs beside these positions.
        # The Zipf trace touches 6,386 keys: at 1,000 rows
        # admit-on-second-touch hands its FIFO replay over to the loop,
        # and at 4,000 and 10,000 both FIFO replays run to the end.
        traces = list(_small_traces(count=300, seed=offset % 1_000))
        zipf = zipf_indices(np.random.default_rng(9), 20_000, 30_000, 1.05)
        traces += [(zipf, c) for c in (1_000, 4_000, 10_000, 30_000)]
        for keys, capacity in traces:
            shifted = keys.astype(np.int64) + np.int64(offset)
            assert np.array_equal(
                get_cache_policy(name).hits(shifted, capacity),
                ORACLES[name](shifted, capacity),
            )

    def test_touches_match_a_dict_scan(self):
        rng = np.random.default_rng(12)
        for offset in (0, 2**40, -(2**40), 2**62):
            for _ in range(200):
                keys = rng.integers(0, 20, size=int(rng.integers(0, 60)))
                keys = keys + np.int64(offset)
                prev, following = _touches(keys)
                assert prev.dtype == following.dtype == np.int32
                expected_prev = np.full(keys.size, -1)
                expected_next = np.full(keys.size, keys.size)
                last: dict[int, int] = {}
                for i, key in enumerate(keys.tolist()):
                    if key in last:
                        expected_prev[i] = last[key]
                        expected_next[last[key]] = i
                    last[key] = i
                assert np.array_equal(prev, expected_prev)
                assert np.array_equal(following, expected_next)

    def test_lru_inclusion_property(self):
        # A bigger LRU holds a superset of a smaller one's keys, so a
        # hit at capacity C is a hit at C + 1, access by access.
        lru = get_cache_policy("lru")
        traces = [keys for keys, _ in _small_traces(count=300, seed=13)]
        traces.append(
            zipf_indices(np.random.default_rng(14), 5_000, 40_000, 1.05)
        )
        for keys in traces:
            smaller = lru.hits(keys, 1)
            for capacity in (2, 3, 5, 8, 13, 64, 512, 1_024, 4_096):
                larger = lru.hits(keys, capacity)
                assert not np.any(smaller & ~larger), capacity
                smaller = larger

    #: (hit count, CRC-32 of the packed flags) on the trace below,
    #: recorded from the implementations these replays replaced.
    PINS: ClassVar[dict[str, tuple[int, int]]] = {
        "lru": (31_304, 3_541_298_950),
        "lfu": (34_368, 1_885_703_768),
        "admit-on-second-touch": (34_160, 4_161_692_228),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_pinned_flags(self, name):
        keys = zipf_indices(np.random.default_rng(2021), 10_000, 50_000, 1.05)
        flags = get_cache_policy(name).hits(keys, 512)
        assert (
            int(np.count_nonzero(flags)),
            zlib.crc32(np.packbits(flags).tobytes()),
        ) == self.PINS[name]

    #: The same pins on a warm serve op's hot-tier trace, which lfu and
    #: admit-on-second-touch replay as a FIFO, recorded from the loops.
    OP_PINS: ClassVar[dict[str, tuple[int, int]]] = {
        "lru": (189_900, 603_525_898),
        "lfu": (191_656, 1_522_482_151),
        "admit-on-second-touch": (182_244, 56_641_683),
    }

    @pytest.mark.parametrize("name", sorted(OP_PINS))
    def test_pinned_flags_on_a_serve_op_trace(self, name):
        keys = _tiered_zipf_trace(240_000)
        flags = get_cache_policy(name).hits(keys, 17_930)
        assert (
            int(np.count_nonzero(flags)),
            zlib.crc32(np.packbits(flags).tobytes()),
        ) == self.OP_PINS[name]

    #: The same pins on a build's hot-tier trace, recorded when lfu and
    #: admit-on-second-touch looped over all of it.
    BUILD_PINS: ClassVar[dict[str, tuple[int, int]]] = {
        "lru": (360_664, 3_548_586_267),
        "lfu": (367_392, 2_062_177_926),
        "admit-on-second-touch": (358_884, 355_229_157),
    }

    @pytest.mark.parametrize("name", sorted(BUILD_PINS))
    def test_pinned_flags_on_a_build_trace(self, name):
        # lfu's FIFO replay runs to the end; admit-on-second-touch's
        # stops inside the trace, at the admission that would first
        # make the cache evict, and hands over to its loop.
        keys = _tiered_zipf_trace()
        if name == "lfu":
            assert _fifo_stop(name, keys, 17_930) == keys.size
        elif name == "admit-on-second-touch":
            assert 0 < _fifo_stop(name, keys, 17_930) < keys.size
        flags = get_cache_policy(name).hits(keys, 17_930)
        assert (
            int(np.count_nonzero(flags)),
            zlib.crc32(np.packbits(flags).tobytes()),
        ) == self.BUILD_PINS[name]


def _zipf_pmf(rows, alpha):
    """Each key's probability under ``zipf_indices`` (``alpha`` != 1).

    It floors ``x - 1``, where ``x`` has the CDF ``(x^(1 - alpha) - 1) /
    (rows^(1 - alpha) - 1)`` on ``[1, rows)``, so key ``i`` takes the
    mass between ``i + 1`` and ``i + 2``, and the last key none.
    """
    edges = np.arange(1, rows + 1, dtype=np.float64) ** (1.0 - alpha)
    pmf = np.zeros(rows)
    pmf[:-1] = np.diff(edges) / (edges[-1] - 1.0)
    return pmf


def _che_lru_hit_rate(pmf, capacity):
    """Che's approximation of LRU's hit rate under independent references.

    The characteristic time ``T`` solves ``sum(1 - exp(-p T)) =
    capacity``, found by bisection (the sum grows with ``T``); the hit
    rate is ``sum(p (1 - exp(-p T)))`` (Che, Tung & Wang 2002).
    """

    def filled(t):
        return float(np.sum(-np.expm1(-pmf * t)))

    lo, hi = 0.0, 1.0
    while filled(hi) < capacity:
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if filled(mid) < capacity else (lo, mid)
    return float(np.sum(pmf * -np.expm1(-pmf * hi)))


#: (rows, capacity, alpha, warm-up, measured accesses, handover): the
#: first is a warm tiered-zipf serve op.  lfu's FIFO replay runs to the
#: end on all four; admit-on-second-touch's runs to the end on the first
#: and hands over to its loop on the other three.
IRM_SHAPES = [
    (143_442, 17_930, 1.05, 65_536, 174_592, False),
    (143_442, 4_096, 1.05, 50_000, 200_000, True),
    (20_000, 2_000, 1.2, 50_000, 300_000, True),
    (50_000, 5_000, 0.8, 100_000, 300_000, True),
]
IRM_IDS = [f"{rows}-rows-{c}-at-zipf-{a}" for rows, c, a, *_ in IRM_SHAPES]

#: Four binomial standard errors of a rate measured over the shortest
#: window: 4 * sqrt(0.25 / 174,592) = 0.0048.
SAMPLING_SLACK = 0.005

#: The sampling slack, plus Che's own error at caches of thousands of
#: rows, which read at most 0.0005 (0.1%) on 2M-access replays.
CHE_TOLERANCE = SAMPLING_SLACK + 0.001


def _irm_trace(shape):
    rows, capacity, alpha, warm, measured, _handover = shape
    return zipf_indices(
        np.random.default_rng(rows + capacity), rows, warm + measured, alpha
    )


class TestIrmHitRates:
    """Steady-state hit rates at zero drift, where every access draws its
    key independently from one fixed distribution, against results that
    do not replay the trace."""

    @pytest.mark.parametrize("shape", IRM_SHAPES, ids=IRM_IDS)
    def test_lru_tracks_che(self, shape):
        rows, capacity, alpha, warm, _measured, _handover = shape
        flags = get_cache_policy("lru").hits(_irm_trace(shape), capacity)
        che = _che_lru_hit_rate(_zipf_pmf(rows, alpha), capacity)
        assert abs(flags[warm:].mean() - che) <= CHE_TOLERANCE

    @pytest.mark.parametrize("shape", IRM_SHAPES, ids=IRM_IDS)
    def test_no_policy_beats_the_top_c_bound(self, shape):
        # No demand-paging policy beats holding the C likeliest keys
        # (Aho, Denning & Ullman 1971), and key i is the i-th likeliest.
        rows, capacity, alpha, warm, _measured, handover = shape
        keys = _irm_trace(shape)
        top_c = float(_zipf_pmf(rows, alpha)[:capacity].sum())
        # The trace's own share of those keys checks the distribution.
        assert abs(np.mean(keys[warm:] < capacity) - top_c) <= SAMPLING_SLACK
        assert _fifo_stop("lfu", keys, capacity) == keys.size
        stop = _fifo_stop("admit-on-second-touch", keys, capacity)
        assert (stop < keys.size) == handover
        for name in sorted(ORACLES):
            rate = get_cache_policy(name).hits(keys, capacity)[warm:].mean()
            assert rate <= top_c + SAMPLING_SLACK, name


class TestTierSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="name"):
            TierSpec("", 1024, 10.0)
        with pytest.raises(ValueError, match="capacity_bytes"):
            TierSpec("hbm", 0, 10.0)
        with pytest.raises(ValueError, match="access_ns"):
            TierSpec("hbm", 1024, 0.0)

    @pytest.mark.parametrize(
        "capacity",
        [1024.7, 1024.0, True, float("nan"), float("inf"), -128],
        ids=repr,
    )
    def test_capacity_bytes_must_be_a_positive_integer(self, capacity):
        with pytest.raises(
            ValueError, match="hbm: capacity_bytes must be a positive integer"
        ):
            TierSpec("hbm", capacity, 10.0)

    @pytest.mark.parametrize(
        "access_ns", [float("nan"), float("inf"), -float("inf"), -1.0]
    )
    def test_access_ns_must_be_positive_and_finite(self, access_ns):
        with pytest.raises(
            ValueError, match="ddr: access_ns must be positive and finite"
        ):
            TierSpec("ddr", 1 << 20, access_ns)

    def test_a_nan_latency_fails_before_any_hierarchy_exists(self):
        # A NaN passes TierHierarchy's strictly-increasing check, so the
        # tier itself has to refuse it.
        with pytest.raises(ValueError, match="host: access_ns"):
            scaled_tier_hierarchy(1_000, host_access_ns=float("nan"))

    def test_numpy_integer_capacity_bytes_accepted(self):
        tier = TierSpec("hbm", np.int64(1024), 10.0)
        assert tier.capacity_rows(128) == 8

    def test_capacity_bytes_to_rows_conversion(self):
        tier = TierSpec("hbm", 1000, 10.0)
        assert tier.capacity_rows(100) == 10
        assert tier.capacity_rows(128) == 7  # floor, never round up
        assert tier.capacity_rows(1001) == 0
        with pytest.raises(ValueError, match="row_bytes"):
            tier.capacity_rows(0)
        with pytest.raises(ValueError, match="row_bytes"):
            tier.capacity_rows(128.5)


class TestTierHierarchy:
    def test_validation(self):
        hot = TierSpec("hot", 1024, 10.0)
        cold = TierSpec("cold", 1 << 20, 100.0)
        with pytest.raises(ValueError, match="at least 2"):
            TierHierarchy(tiers=(hot,))
        with pytest.raises(ValueError, match="duplicate"):
            TierHierarchy(
                tiers=(hot, TierSpec("hot", 1 << 20, 100.0))
            )
        with pytest.raises(ValueError, match="strictly increasing"):
            TierHierarchy(
                tiers=(TierSpec("a", 1024, 100.0), TierSpec("b", 2048, 10.0))
            )
        with pytest.raises(UnknownCachePolicyError):
            TierHierarchy(tiers=(hot, cold), policy="belady")
        with pytest.raises(ValueError, match="whole row"):
            TierHierarchy(
                tiers=(TierSpec("tiny", 8, 10.0), cold), row_bytes=128
            )
        with pytest.raises(ValueError, match="warm_accesses"):
            two_tiers(warm_accesses=-1)
        with pytest.raises(ValueError, match="sim_queries"):
            two_tiers(sim_queries=0)

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            ("row_bytes", 16.5, "row_bytes must be a positive integer"),
            ("row_bytes", True, "row_bytes must be a positive integer"),
            ("warm_accesses", 2.5, "warm_accesses must be an integer >= 0"),
            (
                "warm_accesses",
                float("nan"),
                "warm_accesses must be an integer >= 0",
            ),
            ("warm_accesses", False, "warm_accesses must be an integer >= 0"),
            ("sim_queries", 2.5, "sim_queries must be a positive integer"),
            (
                "sim_queries",
                float("inf"),
                "sim_queries must be a positive integer",
            ),
        ],
    )
    def test_integer_fields_reject_other_numbers(self, field, value, message):
        knobs = {"row_bytes": 16, field: value}
        with pytest.raises(ValueError, match=message):
            TierHierarchy(
                tiers=(
                    TierSpec("hot", 64, 10.0),
                    TierSpec("cold", 1 << 30, 100.0),
                ),
                **knobs,
            )

    def test_cascade_serves_every_access_exactly_once(self):
        hierarchy = two_tiers(capacity_rows=2)
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 50, size=2000)
        stats = hierarchy.simulate(keys)
        assert stats.accesses == keys.size
        assert sum(stats.served) == keys.size
        assert all(count >= 0 for count in stats.served)

    def test_hot_tier_absorbs_repeats(self):
        hierarchy = two_tiers(capacity_rows=8)
        keys = np.tile(np.arange(4), 100)
        stats = hierarchy.simulate(keys)
        # Only the 4 compulsory misses reach the backstop.
        assert stats.served == (396, 4)
        assert stats.hit_rate == pytest.approx(0.99)

    def test_warmup_excluded_but_warms_the_cache(self):
        hierarchy = two_tiers(capacity_rows=8)
        keys = np.tile(np.arange(4), 10)
        cold = hierarchy.simulate(keys)
        warm = hierarchy.simulate(keys, warmup_keys=np.arange(4))
        assert warm.accesses == cold.accesses == keys.size
        assert warm.hit_rate == 1.0
        assert cold.hit_rate < 1.0

    def test_empty_trace_hit_rate_is_zero(self):
        stats = two_tiers().simulate(np.array([], dtype=np.int64))
        assert stats.accesses == 0
        assert stats.hit_rate == 0.0
        assert stats.effective_ns == 0.0
        assert stats.tier_fractions == (0.0, 0.0)

    def test_effective_ns_blends_tier_latencies(self):
        hierarchy = two_tiers(capacity_rows=8)
        stats = hierarchy.simulate(np.tile(np.arange(4), 100))
        expected = 0.99 * 10.0 + 0.01 * 100.0
        assert stats.effective_ns == pytest.approx(expected)

    def test_penalty_ns_is_relative_to_hot_tier(self):
        hierarchy = two_tiers()
        penalty = hierarchy.penalty_ns(np.array([0, 1, 0]))
        assert penalty.tolist() == [0.0, 90.0, 0.0]

    def test_as_dict_round_trips_capacities(self):
        payload = two_tiers(capacity_rows=4).as_dict()
        assert payload["policy"] == "lru"
        assert [t["name"] for t in payload["tiers"]] == ["hot", "cold"]
        assert payload["tiers"][0]["capacity_rows"] == 4
        assert payload["tiers"][0]["capacity_bytes"] == 64

    def test_three_tier_cascade_order(self):
        hierarchy = TierHierarchy(
            tiers=(
                TierSpec("l1", 2 * 16, 1.0),
                TierSpec("l2", 4 * 16, 10.0),
                TierSpec("mem", 1 << 30, 100.0),
            ),
            row_bytes=16,
        )
        # 5 distinct keys cycled: too many for l1 (2) and l2 (4), so
        # every tier sees traffic.
        keys = np.tile(np.arange(5), 40)
        stats = hierarchy.simulate(keys)
        assert len(stats.served) == 3
        assert stats.served[2] >= 5  # compulsory misses land at the end
        assert sum(stats.served) == keys.size


class TestFactories:
    def test_default_hierarchy_uses_u280_capacities(self):
        hierarchy = default_tier_hierarchy()
        memory = u280_memory_system()
        hbm = sum(b.capacity_bytes for b in memory.banks_of(BankKind.HBM))
        ddr = sum(b.capacity_bytes for b in memory.banks_of(BankKind.DDR))
        assert hierarchy.names == ("hbm", "ddr", "host")
        assert hierarchy.tiers[0].capacity_bytes == hbm
        assert hierarchy.tiers[1].capacity_bytes == ddr

    def test_default_hierarchy_latencies_come_from_timing_model(self):
        hierarchy = default_tier_hierarchy()
        dram_ns = default_timing_model().dram_access_ns(DEFAULT_ROW_BYTES)
        assert hierarchy.tiers[0].access_ns == pytest.approx(dram_ns)
        assert hierarchy.tiers[1].access_ns == pytest.approx(
            dram_ns * DDR_CONTENTION_FACTOR
        )
        assert hierarchy.tiers[2].access_ns == DEFAULT_HOST_ACCESS_NS
        ns = hierarchy.tier_access_ns
        assert ns[0] < ns[1] < ns[2]

    def test_scaled_hierarchy_fractions(self):
        hierarchy = scaled_tier_hierarchy(10_000, hot_fraction=0.1)
        assert hierarchy.capacity_rows()[0] == 1000
        assert hierarchy.capacity_rows()[1] == 5000
        assert hierarchy.capacity_rows()[2] >= 10_000

    def test_scaled_hierarchy_validation(self):
        with pytest.raises(ValueError, match="working_set_rows"):
            scaled_tier_hierarchy(0)
        with pytest.raises(ValueError, match="hot_fraction"):
            scaled_tier_hierarchy(1000, hot_fraction=0.6, warm_fraction=0.5)

    def test_scaled_hierarchy_tiny_working_set_still_valid(self):
        hierarchy = scaled_tier_hierarchy(2, hot_fraction=0.01)
        assert hierarchy.capacity_rows()[0] >= 1


class TestPopularityModel:
    def test_validation(self):
        with pytest.raises(ValueError, match="rows"):
            PopularityModel(rows=0)
        with pytest.raises(ValueError, match="drift"):
            PopularityModel(rows=10, drift_rows_per_s=-1.0)
        with pytest.raises(ValueError, match="size"):
            PopularityModel(rows=10).sample(np.random.default_rng(0), -1)

    @pytest.mark.parametrize("field", ["alpha", "drift_rows_per_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -np.inf])
    def test_non_finite_knobs_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            PopularityModel(rows=10, **{field: value})

    @pytest.mark.parametrize(
        "rows",
        [10.5, 10.0, True, np.True_, float("nan"), float("inf"), -3, "10"],
        ids=repr,
    )
    def test_rows_must_be_a_positive_integer(self, rows):
        with pytest.raises(
            ValueError, match="rows must be a positive integer"
        ):
            PopularityModel(rows=rows)

    def test_numpy_integer_rows_equal_int(self):
        expected = PopularityModel(rows=100).sample(
            np.random.default_rng(3), 64
        )
        for rows in (np.int64(100), np.int32(100), np.uint16(100)):
            keys = PopularityModel(rows=rows).sample(
                np.random.default_rng(3), 64
            )
            assert keys.dtype == np.int64
            assert np.array_equal(keys, expected)

    @pytest.mark.parametrize(
        "t_s",
        [float("nan"), float("inf"), -np.inf, np.array([0.0, np.nan, 1.0])],
        ids=repr,
    )
    def test_drifting_sample_rejects_non_finite_times(self, t_s):
        model = PopularityModel(rows=100, drift_rows_per_s=1.0)
        with pytest.raises(ValueError, match="t_s must be finite"):
            model.sample(np.random.default_rng(0), 3, t_s=t_s)

    def test_sample_range_and_determinism(self):
        model = PopularityModel(rows=1000, alpha=1.05)
        a = model.sample(np.random.default_rng(3), 5000)
        b = model.sample(np.random.default_rng(3), 5000)
        assert np.array_equal(a, b)
        assert a.min() >= 0 and a.max() < 1000

    def test_skew_concentrates_mass(self):
        rng = np.random.default_rng(1)
        skewed = PopularityModel(rows=1000, alpha=1.3).sample(rng, 20_000)
        rng = np.random.default_rng(1)
        uniform = PopularityModel(rows=1000, alpha=0.0).sample(rng, 20_000)
        top_skewed = np.count_nonzero(skewed < 10) / skewed.size
        top_uniform = np.count_nonzero(uniform < 10) / uniform.size
        assert top_skewed > 5 * top_uniform

    def test_drift_rotates_the_hot_set(self):
        model = PopularityModel(rows=100, alpha=1.05, drift_rows_per_s=2.0)
        still = model.sample(np.random.default_rng(4), 1000, t_s=0.0)
        moved = model.sample(np.random.default_rng(4), 1000, t_s=10.0)
        assert np.array_equal(moved, (still + 20) % 100)

    def test_drift_accepts_per_access_times(self):
        model = PopularityModel(rows=100, alpha=1.05, drift_rows_per_s=1.0)
        t_s = np.linspace(0.0, 50.0, 64)
        keys = model.sample(np.random.default_rng(5), 64, t_s=t_s)
        assert keys.shape == (64,)
        assert keys.min() >= 0 and keys.max() < 100

    def test_zero_drift_ignores_time(self):
        model = PopularityModel(rows=100, alpha=1.05)
        a = model.sample(np.random.default_rng(6), 256, t_s=0.0)
        b = model.sample(np.random.default_rng(6), 256, t_s=1e6)
        assert np.array_equal(a, b)
