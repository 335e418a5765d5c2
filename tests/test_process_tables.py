"""Tests for the process-wide profile and decision tables.

The profile table (``repro.core.profiler``) computes each distinct
kernel trace's profile once per process; the decision table
(``repro.core.configurator``) answers every determination with the
decision an earlier search made for the same squad.  Neither may change
a result: a table hit must equal a fresh computation exactly, and a run
served warm must count, trace and simulate like one served cold.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.application import Application, AppKind, Request
from repro.apps.models import inference_app
from repro.catalog.ingest import result_metrics
from repro.core import configurator, profiler as profiler_module
from repro.core.config import BlessConfig
from repro.core.configurator import ExecutionConfigDeterminer, composition_count
from repro.core.profiler import OfflineProfiler
from repro.core.runtime import BlessRuntime
from repro.core.squad import KernelSquad, SquadEntry
from repro.gpusim.kernel import KernelSpec
from repro.obs import events as ev
from repro.workloads.suite import bind_closed_loop


def build_app(name, specs):
    kernels = [
        KernelSpec(
            name=f"{name}-{i}",
            base_duration_us=duration,
            sm_demand=demand,
            mem_intensity=0.4,
            dispatch_gap_us=gap,
        )
        for i, (duration, demand, gap) in enumerate(specs)
    ]
    return Application(
        name=name, kind=AppKind.INFERENCE, kernels=kernels, memory_mb=10
    )


def squad_of(apps_with_indices):
    squad = KernelSquad()
    for app, indices in apps_with_indices:
        squad.entries[app.app_id] = SquadEntry(
            request=Request(app=app, arrival_time=0.0),
            kernel_indices=list(indices),
        )
    return squad


def table_only(determiner):
    """Make ``determiner`` fail if it ever runs a search of its own."""

    def no_search(*_):
        raise AssertionError("expected a decision-table hit, got a search")

    determiner._search = no_search
    return determiner


kernel_strategy = st.tuples(
    st.floats(min_value=1.0, max_value=500.0),
    st.floats(min_value=0.05, max_value=1.0),
    st.sampled_from([0.0, 5.0]),
)
app_strategy = st.lists(kernel_strategy, min_size=1, max_size=8)


class TestDecisionTable:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(app_strategy, min_size=1, max_size=8),
        st.randoms(use_true_random=False),
        st.sampled_from(["adaptive", "static"]),
        st.integers(min_value=2, max_value=18),
    )
    def test_warm_table_equals_fresh_search(
        self, specs, rng, semi_sp_mode, partitions
    ):
        """(a) A fresh determiner answered by the warm table returns
        exactly the uncached search's config, prediction included."""
        config = BlessConfig(
            num_partitions=partitions,
            semi_sp_mode=semi_sp_mode,
        )
        profiler = OfflineProfiler(config=config)
        apps = [build_app(f"app{i}", spec) for i, spec in enumerate(specs)]
        pairs = []
        for app in apps:
            count = rng.randrange(1, app.num_kernels + 1)
            start = rng.randrange(0, app.num_kernels - count + 1)
            pairs.append((app, range(start, start + count)))
        squad = squad_of(pairs)
        profiles = {app.app_id: profiler.profile(app) for app in apps}

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(configurator, "_DECISIONS", {})
            ExecutionConfigDeterminer(config).determine(squad, profiles)  # warm
            warm = table_only(ExecutionConfigDeterminer(config))
            got = warm.determine(squad, profiles)
            fresh = ExecutionConfigDeterminer(config)._determine_uncached(
                squad, profiles
            )

        assert got == fresh
        assert got.predicted_duration_us == fresh.predicted_duration_us
        # The per-run LRU still counts the lookup as its own miss.
        assert (warm.cache.stats.hits, warm.cache.stats.misses) == (0, 1)

    @pytest.mark.parametrize(
        "partitions, small_kernels, smalls, expect",
        [
            # Half the GPU would double the big stack: NSP wins.
            (2, [(1.0, 0.05, 0.0)], 1, "nsp"),
            # A spatial plan with adaptive rears.
            (18, [(40.0, 0.9, 0.0)] * 6, 1, "rears"),
            # Six apps: a 6,188-split space, enumerated in full.
            (18, [(40.0, 0.9, 0.0)] * 6, 5, "six-apps"),
        ],
        ids=["nsp", "rears", "six-apps"],
    )
    def test_each_search_branch_served_from_table(
        self, monkeypatch, partitions, small_kernels, smalls, expect
    ):
        monkeypatch.setattr(configurator, "_DECISIONS", {})
        config = BlessConfig(num_partitions=partitions)
        big = build_app("big", [(400.0, 1.0, 0.0)] * 6)
        apps = [big] + [
            build_app(f"small{i}", small_kernels) for i in range(smalls)
        ]
        squad = squad_of([(a, range(a.num_kernels)) for a in apps])
        profiler = OfflineProfiler(config=config)
        profiles = {a.app_id: profiler.profile(a) for a in apps}

        fresh = ExecutionConfigDeterminer(config)._determine_uncached(squad, profiles)
        ExecutionConfigDeterminer(config).determine(squad, profiles)
        got = table_only(ExecutionConfigDeterminer(config)).determine(squad, profiles)

        assert got == fresh
        if expect == "nsp":
            assert not got.is_spatial
        else:
            assert got.is_spatial and got.rear_counts is not None
        # The table entry counts the whole split space as searched.
        (decided,) = configurator._DECISIONS.values()
        assert decided.candidates == 1 + composition_count(partitions, len(apps))

    def test_insertion_order_is_part_of_the_key(self):
        """Reordered squads are different table keys (the NSP estimate
        sums in insertion order), so each gets its own search."""
        config = BlessConfig()
        a = build_app("order-a", [(100.0, 0.5, 0.0)] * 3)
        b = build_app("order-b", [(60.0, 0.7, 0.0)] * 3)
        profiler = OfflineProfiler(config=config)
        profiles = {x.app_id: profiler.profile(x) for x in (a, b)}
        ExecutionConfigDeterminer(config).determine(
            squad_of([(a, range(3)), (b, range(3))]), profiles
        )
        with pytest.raises(AssertionError, match="decision-table hit"):
            table_only(ExecutionConfigDeterminer(config)).determine(
                squad_of([(b, range(3)), (a, range(3))]), profiles
            )

    def test_table_swept_when_full(self, monkeypatch):
        monkeypatch.setattr(configurator, "_DECISIONS", {})
        monkeypatch.setattr(configurator, "_DECISIONS_SIZE", 2)
        config = BlessConfig()
        app = build_app("sweep", [(100.0, 0.5, 0.0)] * 4)
        profiles = {app.app_id: OfflineProfiler(config=config).profile(app)}
        determiner = ExecutionConfigDeterminer(config)
        for end in (1, 2, 3):
            determiner.determine(squad_of([(app, range(end))]), profiles)
        assert len(configurator._DECISIONS) == 1


def serve_cell():
    apps = [inference_app(m) for m in ("VGG", "R50", "R101", "BERT")]
    runtime = BlessRuntime(trace=True)
    result = runtime.serve(bind_closed_loop(apps, factor=1.0, requests=4))
    return runtime, result


class TestColdAndWarmRuns:
    def test_warm_run_matches_cold_run(self, monkeypatch):
        """(b) One BLESS cell served cold, then warm: identical metrics
        (per-run LRU hit/miss counts included) and decision records,
        with the warm run making no search of its own."""
        monkeypatch.setattr(configurator, "_DECISIONS", {})
        monkeypatch.setattr(profiler_module, "_PROFILES", {})
        monkeypatch.setattr(profiler_module, "_BY_IDENTITY", {})
        searches = []
        real_search = ExecutionConfigDeterminer._search

        def counting_search(self, squad, profiles):
            searches.append(1)
            return real_search(self, squad, profiles)

        monkeypatch.setattr(ExecutionConfigDeterminer, "_search", counting_search)

        cold_runtime, cold = serve_cell()
        cold_searches = len(searches)
        warm_runtime, warm = serve_cell()

        assert cold_searches > 0
        assert len(searches) == cold_searches
        assert result_metrics(warm) == result_metrics(cold)
        assert warm.extras["config_cache_misses"] == cold.extras["config_cache_misses"]
        assert warm.extras["config_cache_hits"] == cold.extras["config_cache_hits"]

        def chosen(runtime):
            return [
                (r.ts_us, r.app_id, r.args)
                for r in runtime.obs.tracer.of_type(ev.CONFIG_CHOSEN)
            ]

        assert chosen(warm_runtime) == chosen(cold_runtime)
        assert any(not args["cache_hit"] for _, _, args in chosen(warm_runtime))


class TestProfileTable:
    def test_profiles_shared_across_profilers(self):
        app = inference_app("R50")
        assert OfflineProfiler().profile(app) is OfflineProfiler().profile(app)

    def test_pickled_copy_hits_the_table(self):
        """(c) Equal content, not object identity, selects the profile."""
        app = inference_app("R101")
        first = OfflineProfiler().profile(app)
        copy = pickle.loads(pickle.dumps(app))
        assert copy is not app and copy.kernels is not app.kernels
        assert OfflineProfiler().profile(copy) is first

    def test_partition_grid_is_part_of_the_key(self):
        app = inference_app("VGG")
        coarse = OfflineProfiler(config=BlessConfig(num_partitions=9)).profile(app)
        fine = OfflineProfiler().profile(app)
        assert coarse.num_partitions == 9 and fine.num_partitions == 18
