"""Tests for the tiered-storage layer: policies, hierarchy, popularity."""

import zlib
from collections import OrderedDict

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


ORACLES = {"lru": _stack_distance_lru, "lfu": _reference_lfu}


def _small_traces(count=3000, seed=11):
    """Seeded (keys, capacity) pairs: universe 1-15, capacity 1-12,
    length 0-80, so evictions, ties and re-admissions are all common."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        universe = int(rng.integers(1, 16))
        capacity = int(rng.integers(1, 13))
        length = int(rng.integers(0, 81))
        yield rng.integers(0, universe, size=length), capacity


class TestPolicyExactness:
    """Each one-pass replay against an independent oracle."""

    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_small_traces_match_oracle(self, name):
        policy, oracle = get_cache_policy(name), ORACLES[name]
        for keys, capacity in _small_traces():
            got = policy.hits(keys, capacity)
            assert got.dtype == bool and got.shape == keys.shape
            assert np.array_equal(got, oracle(keys, capacity)), (
                keys.tolist(),
                capacity,
            )

    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_zipf_trace_at_hot_tier_capacity_matches_oracle(self, name):
        # 143,442 rows is the small model at --max-rows 4096; a 12.5%
        # hot tier holds 17,930 of them, and this trace touches 23,418
        # distinct keys, so the hot tier evicts.
        keys = zipf_indices(np.random.default_rng(3), 143_442, 100_000, 1.05)
        assert np.unique(keys).size > 17_930
        got = get_cache_policy(name).hits(keys, 17_930)
        assert np.array_equal(got, ORACLES[name](keys, 17_930))

    #: (hit count, CRC-32 of the packed flags) on the trace below,
    #: recorded from the implementations these replays replaced.
    PINS = {
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


class TestTierSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="name"):
            TierSpec("", 1024, 10.0)
        with pytest.raises(ValueError, match="capacity_bytes"):
            TierSpec("hbm", 0, 10.0)
        with pytest.raises(ValueError, match="access_ns"):
            TierSpec("hbm", 1024, 0.0)

    def test_capacity_bytes_to_rows_conversion(self):
        tier = TierSpec("hbm", 1000, 10.0)
        assert tier.capacity_rows(100) == 10
        assert tier.capacity_rows(128) == 7  # floor, never round up
        assert tier.capacity_rows(1001) == 0
        with pytest.raises(ValueError, match="row_bytes"):
            tier.capacity_rows(0)


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
