"""Tests for the squad-signature LRU and the decisions it counts (§4.4).

Covers: (a) repeat decisions equal uncached decisions over randomized
squads, and both equal the exhaustive oracle scan; (b) the LRU eviction
bound holds and the LRU stores no decision — plus the signature's
canonicalization.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.application import Application, AppKind, Request
from repro.core.config import BlessConfig
from repro.core.config_cache import ExecutionConfigCache
from repro.core.configurator import ExecutionConfigDeterminer
from repro.core.profiler import OfflineProfiler
from repro.core.runtime import BlessRuntime
from repro.core.squad import KernelSquad, SquadEntry
from repro.gpusim.kernel import KernelSpec
from repro.metrics.stats import CacheStats, ServingResult
from repro.workloads.suite import bind_closed_loop

from . import config_oracle


def build_app(app_id, durations, demands, quota=0.5, gap=0.0):
    kernels = [
        KernelSpec(
            name=f"{app_id}-{i}",
            base_duration_us=d,
            sm_demand=s,
            mem_intensity=0.4,
            dispatch_gap_us=gap,
        )
        for i, (d, s) in enumerate(zip(durations, demands))
    ]
    return Application(
        name=app_id,
        kind=AppKind.INFERENCE,
        kernels=kernels,
        memory_mb=10,
        quota=quota,
        app_id=app_id,
    )


def squad_of(apps_with_indices):
    squad = KernelSquad()
    for app, indices in apps_with_indices:
        squad.entries[app.app_id] = SquadEntry(
            request=Request(app=app, arrival_time=0.0),
            kernel_indices=list(indices),
        )
    return squad


# Random squads: 2-4 apps, each with 2-10 kernels of varied durations
# and demands, contributing a window of its kernels to the squad.
app_strategy = st.lists(
    st.tuples(
        st.floats(min_value=1.0, max_value=500.0),
        st.floats(min_value=0.05, max_value=1.0),
    ),
    min_size=2,
    max_size=10,
)
squad_strategy = st.lists(app_strategy, min_size=2, max_size=4)


class TestCachedEqualsUncached:
    @settings(max_examples=50, deadline=None)
    @given(squad_strategy, st.randoms(use_true_random=False))
    def test_cached_decision_matches_uncached(self, specs, rng):
        """(a) 50 randomized squads: cache on == cache off, decision-wise."""
        apps = [
            build_app(
                f"app{i}",
                [d for d, _ in spec],
                [s for _, s in spec],
                quota=1.0 / len(specs),
            )
            for i, spec in enumerate(specs)
        ]
        profiler = OfflineProfiler()
        profiles = {a.app_id: profiler.profile(a) for a in apps}
        pairs = []
        for a in apps:
            count = rng.randrange(1, len(a.kernels) + 1)
            start = rng.randrange(0, len(a.kernels) - count + 1)
            pairs.append((a, range(start, start + count)))
        squad = squad_of(pairs)

        cached = ExecutionConfigDeterminer(BlessConfig())
        first = cached.determine(squad, profiles)
        replay = cached.determine(squad, profiles)  # served from cache
        fresh = cached._determine_uncached(squad, profiles)

        assert cached.cache.stats.hits == 1
        for got in (replay, fresh):
            assert got.partitions == first.partitions
            assert got.rear_counts == first.rear_counts
            assert got.predicted_duration_us == pytest.approx(
                first.predicted_duration_us
            )

    @settings(max_examples=25, deadline=None)
    @given(
        squad_strategy,
        st.randoms(use_true_random=False),
        st.sampled_from(["adaptive", "static"]),
        st.integers(min_value=2, max_value=18),
    )
    def test_determine_matches_oracle(
        self, specs, rng, semi_sp_mode, num_partitions
    ):
        """The vectorized search, cached and uncached, picks the
        exhaustive scan's plan (tests/config_oracle.py).  Few partitions
        stretch the restricted stacks, so the unrestricted plan wins too."""
        config = BlessConfig(
            num_partitions=num_partitions,
            semi_sp_mode=semi_sp_mode,
        )
        apps = [
            build_app(f"app{i}", [d for d, _ in spec], [s for _, s in spec])
            for i, spec in enumerate(specs)
        ]
        profiler = OfflineProfiler(config=config)
        profiles = {a.app_id: profiler.profile(a) for a in apps}
        pairs = []
        for a in apps:
            count = rng.randrange(1, len(a.kernels) + 1)
            start = rng.randrange(0, len(a.kernels) - count + 1)
            pairs.append((a, range(start, start + count)))
        squad = squad_of(pairs)

        determiner = ExecutionConfigDeterminer(config)
        expected = config_oracle.determine(squad, profiles, config)
        decisions = [
            determiner.determine(squad, profiles),
            determiner.determine(squad, profiles),  # served from cache
            determiner._determine_uncached(squad, profiles),
        ]
        assert determiner.cache.stats.hits == 1
        for got in decisions:
            assert got.partitions == expected.partitions
            assert got.rear_counts == expected.rear_counts
            assert got.predicted_duration_us == pytest.approx(
                expected.predicted_duration_us, rel=1e-12
            )


class TestLRUBound:
    def test_eviction_bound_holds(self):
        """(b) the LRU never exceeds its capacity; LRU order evicts."""
        cache = ExecutionConfigCache(capacity=8)
        for i in range(20):
            assert not cache.lookup(("key", i))
            assert len(cache) <= 8
        assert len(cache) == 8
        assert cache.stats.evictions == 12
        assert cache.stats.misses == 20
        # The 8 most recent keys survive, the older ones are gone.
        for i in range(12):
            assert ("key", i) not in cache
        for i in range(12, 20):
            assert ("key", i) in cache

    def test_get_refreshes_recency(self):
        cache = ExecutionConfigCache(capacity=2)
        cache.lookup("a")
        cache.lookup("b")
        assert cache.lookup("a")  # a hit refreshes "a"
        cache.lookup("c")  # evicts "b", not "a"
        assert "a" in cache
        assert "b" not in cache
        assert (cache.stats.hits, cache.stats.misses) == (1, 3)

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ExecutionConfigCache(capacity=0)


class TestSignature:
    def test_insertion_order_irrelevant(self):
        a = build_app("a", [100.0, 50.0], [1.0, 1.0])
        b = build_app("b", [80.0, 40.0], [1.0, 1.0])
        profiler = OfflineProfiler()
        profiles = {"a": profiler.profile(a), "b": profiler.profile(b)}
        config = BlessConfig()
        key_ab = squad_of([(a, [0, 1]), (b, [0, 1])]).signature(
            profiles, config
        )
        key_ba = squad_of([(b, [0, 1]), (a, [0, 1])]).signature(
            profiles, config
        )
        assert key_ab == key_ba

    def test_cross_client_reuse_remaps_partitions(self):
        """Two clients of one model share an entry, remapped by app_id."""
        profiler = OfflineProfiler()
        long_a = build_app("long", [100.0] * 3, [1.0] * 3)
        short_a = build_app("short", [25.0] * 3, [1.0] * 3)
        profiles = {}
        squads = []
        for suffix in ("#0", "#1"):
            clients = [
                long_a.with_quota(0.5, app_id=f"long{suffix}"),
                short_a.with_quota(0.5, app_id=f"short{suffix}"),
            ]
            for c in clients:
                profiles[c.app_id] = profiler.profile(c)
            squads.append(squad_of([(c, [0, 1, 2]) for c in clients]))

        determiner = ExecutionConfigDeterminer(BlessConfig())
        first = determiner.determine(squads[0], profiles)
        second = determiner.determine(squads[1], profiles)
        assert determiner.cache.stats.hits == 1  # second squad reused it
        assert second.partitions == {
            f"{name}#1": parts
            for name, parts in (
                (k.split("#")[0], v) for k, v in first.partitions.items()
            )
        }
        # The long app still gets the bigger slice after remapping.
        assert second.partitions["long#1"] > second.partitions["short#1"]

    def test_kernel_window_distinguishes(self):
        a = build_app("a", [100.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        b = build_app("b", [50.0, 50.0, 50.0], [1.0, 1.0, 1.0])
        profiler = OfflineProfiler()
        profiles = {"a": profiler.profile(a), "b": profiler.profile(b)}
        config = BlessConfig()
        key_head = squad_of([(a, [0, 1]), (b, [0, 1])]).signature(
            profiles, config
        )
        key_tail = squad_of([(a, [1, 2]), (b, [1, 2])]).signature(
            profiles, config
        )
        assert key_head != key_tail

    def test_same_name_other_trace_distinguishes(self):
        """Same name, quota and window, but another trace: another key."""
        a = build_app("a", [100.0, 50.0], [1.0, 1.0], gap=5.0)
        a_gapless = build_app("a", [100.0, 50.0], [1.0, 1.0], gap=0.0)
        b = build_app("b", [80.0, 40.0], [1.0, 1.0])
        profiler = OfflineProfiler()
        config = BlessConfig()
        keys = []
        for variant in (a, a_gapless):
            profiles = {"a": profiler.profile(variant), "b": profiler.profile(b)}
            key = squad_of([(variant, [0, 1]), (b, [0, 1])]).signature(
                profiles, config
            )
            keys.append(key)
        assert keys[0] != keys[1]


class TestCacheStats:
    def test_hit_rate_and_merge(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.lookups == 4
        assert stats.hit_rate == pytest.approx(0.75)
        assert CacheStats().hit_rate == 0.0
        # Merged results recompute the rate from the summed counters.
        parts = []
        for part in (stats, CacheStats(hits=1, misses=3, evictions=2)):
            result = ServingResult(system="TEST")
            result.extras = {
                f"config_cache_{key}": value for key, value in part.as_dict().items()
            }
            parts.append(result)
        merged = ServingResult.merge(parts, num_slots=2).extras
        assert merged["config_cache_hits"] == 4 and merged["config_cache_misses"] == 4
        assert merged["config_cache_evictions"] == 2
        assert merged["config_cache_hit_rate"] == pytest.approx(0.5)

    def test_runtime_reports_hit_rate(self):
        apps = [
            build_app("a", [80.0] * 6, [1.0] * 6),
            build_app("b", [40.0] * 6, [1.0] * 6),
        ]
        runtime = BlessRuntime()
        result = runtime.serve(bind_closed_loop(apps, factor=1.0, requests=4))
        assert "config_cache_hit_rate" in result.extras
        lookups = (
            result.extras["config_cache_hits"]
            + result.extras["config_cache_misses"]
        )
        assert lookups > 0
        # Closed-loop requests replay the same kernel windows: the
        # steady state must be served from the cache.
        assert result.extras["config_cache_hits"] > 0
