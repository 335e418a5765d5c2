"""Tests for the squad estimators (§4.4.2) and the determiner (§4.4)."""

import math

import pytest

from repro.apps.application import Application, AppKind, Request
from repro.core import configurator
from repro.core.config import BlessConfig
from repro.core.configurator import (
    ExecutionConfigDeterminer,
    composition_count,
    quota_proportional_config,
)
from repro.core.predictors import (
    concurrent_wave_estimate,
    interference_free_estimate,
    workload_equivalence_estimate,
)
from repro.core.profiler import OfflineProfiler
from repro.core.runtime import BlessRuntime
from repro.core.squad import KernelSquad, SquadEntry
from repro.gpusim.kernel import KernelSpec
from repro.workloads.suite import bind_load, multi_app_mix

from .config_oracle import (
    compositions,
    concurrent_wave_estimate_scalar,
    determine as oracle_determine,
    exhaustive_spatial,
    interference_free_estimate_scalar,
    workload_equivalence_estimate_scalar,
)


def toy_app(app_id, durations, demand=0.5, gap=0.0):
    kernels = [
        KernelSpec(
            name=f"{app_id}-{i}", base_duration_us=d, sm_demand=demand,
            mem_intensity=0.4, dispatch_gap_us=gap,
        )
        for i, d in enumerate(durations)
    ]
    return Application(
        name=app_id, kind=AppKind.INFERENCE, kernels=kernels, memory_mb=10,
        quota=0.5, app_id=app_id,
    )


def squad_of(apps_with_indices):
    squad = KernelSquad()
    for app, indices in apps_with_indices:
        request = Request(app=app, arrival_time=0.0)
        squad.entries[app.app_id] = SquadEntry(
            request=request, kernel_indices=list(indices)
        )
    return squad


@pytest.fixture()
def toy_setup():
    a = toy_app("a", [100.0, 100.0], demand=1.0)
    b = toy_app("b", [50.0, 50.0], demand=1.0)
    profiler = OfflineProfiler()
    profiles = {"a": profiler.profile(a), "b": profiler.profile(b)}
    squad = squad_of([(a, [0, 1]), (b, [0, 1])])
    return squad, profiles


class TestInterferenceFree:
    def test_eq1_is_max_of_stacks(self, toy_setup):
        squad, profiles = toy_setup
        # Full partitions: stacks are 200 and 100 -> max 200.
        estimate = interference_free_estimate(
            squad, profiles, {"a": 18, "b": 18}
        )
        assert estimate == pytest.approx(200.0)

    def test_restriction_stretches_stack(self, toy_setup):
        squad, profiles = toy_setup
        even = interference_free_estimate(squad, profiles, {"a": 9, "b": 9})
        assert even > 200.0

    def test_balanced_split_beats_even_for_uneven_stacks(self, toy_setup):
        squad, profiles = toy_setup
        even = interference_free_estimate(squad, profiles, {"a": 9, "b": 9})
        biased = interference_free_estimate(squad, profiles, {"a": 12, "b": 6})
        assert biased < even

    def test_gaps_included(self):
        a = toy_app("a", [100.0], gap=20.0)
        profiles = {"a": OfflineProfiler().profile(a)}
        squad = squad_of([(a, [0])])
        estimate = interference_free_estimate(squad, profiles, {"a": 18})
        assert estimate == pytest.approx(120.0)


class TestWorkloadEquivalence:
    def test_eq2_serialises_saturating_kernels(self, toy_setup):
        squad, profiles = toy_setup
        # Every kernel demands the whole GPU: waves serialise -> 300.
        estimate = workload_equivalence_estimate(squad, profiles)
        assert estimate == pytest.approx(300.0, rel=0.05)

    def test_empty_squad(self):
        assert workload_equivalence_estimate(KernelSquad(), {}) == 0.0


class TestWaveEstimate:
    def test_fitting_demands_run_in_parallel(self):
        a = toy_app("a", [100.0] * 3, demand=0.4)
        b = toy_app("b", [100.0] * 3, demand=0.4)
        profiler = OfflineProfiler()
        profiles = {"a": profiler.profile(a), "b": profiler.profile(b)}
        squad = squad_of([(a, [0, 1, 2]), (b, [0, 1, 2])])
        estimate = concurrent_wave_estimate(squad, profiles)
        # Fits the GPU: ~300us (each app's own stack), not 600.
        assert estimate < 400.0

    def test_saturating_demands_cost_more(self):
        a = toy_app("a", [100.0] * 3, demand=1.0)
        b = toy_app("b", [100.0] * 3, demand=1.0)
        profiler = OfflineProfiler()
        profiles = {"a": profiler.profile(a), "b": profiler.profile(b)}
        squad = squad_of([(a, [0, 1, 2]), (b, [0, 1, 2])])
        estimate = concurrent_wave_estimate(squad, profiles)
        assert estimate > 400.0

    def test_single_request_is_solo_stack(self):
        a = toy_app("a", [100.0, 50.0], demand=0.8)
        profiles = {"a": OfflineProfiler().profile(a)}
        squad = squad_of([(a, [0, 1])])
        # Small tolerance: durations interpolate on the partition grid.
        assert concurrent_wave_estimate(squad, profiles) == pytest.approx(
            150.0, rel=0.05
        )


class TestCompositions:
    def test_composition_count_formula(self):
        assert composition_count(18, 2) == 17
        assert composition_count(18, 4) == math.comb(17, 3)

    def test_compositions_enumerate_all(self):
        splits = list(compositions(5, 2))
        assert splits == [(1, 4), (2, 3), (3, 2), (4, 1)]
        assert all(sum(s) == 5 for s in splits)

    def test_single_part(self):
        assert list(compositions(7, 1)) == [(7,)]

    def test_empty_space_when_total_below_parts(self):
        """Regression: total < parts must yield an explicit empty space."""
        assert list(compositions(2, 3)) == []
        assert list(compositions(0, 1)) == []
        assert list(compositions(5, 0)) == []

    def test_enumerate_empty_space_returns_none_not_crash(self):
        """Regression: the enumerator reports 'no spatial plan' (None)
        for an empty composition space instead of dying on an assert."""
        a = toy_app("a", [10.0])
        b = toy_app("b", [10.0])
        c = toy_app("c", [10.0])
        profiler = OfflineProfiler()
        squad = squad_of([(x, [0]) for x in (a, b, c)])
        profiles = {x.app_id: profiler.profile(x) for x in (a, b, c)}
        ids = ["a", "b", "c"]
        determiner = ExecutionConfigDeterminer(BlessConfig())
        stack = determiner._stack_matrix(squad, profiles, ids)
        assert determiner._enumerate_vectorized(stack, ids, 2) is None
        assert exhaustive_spatial(squad, profiles, ids, 2) is None
        # End-to-end: the determiner falls back to the unrestricted plan.
        config = BlessConfig(num_partitions=2)
        small_profiler = OfflineProfiler(config=config)
        small_profiles = {x.app_id: small_profiler.profile(x) for x in (a, b, c)}
        result = ExecutionConfigDeterminer(config).determine(squad, small_profiles)
        assert result.partitions is None


class TestScalarVectorEquivalence:
    """The vectorized estimators must match their scalar references."""

    def make_squad(self):
        a = toy_app("a", [120.0, 35.0, 80.0, 5.0], demand=0.7, gap=3.0)
        b = toy_app("b", [60.0, 45.0, 10.0], demand=0.9, gap=1.5)
        profiler = OfflineProfiler()
        profiles = {"a": profiler.profile(a), "b": profiler.profile(b)}
        squad = squad_of([(a, [0, 1, 2, 3]), (b, [0, 1, 2])])
        return squad, profiles

    def test_eq1_matches_scalar(self):
        squad, profiles = self.make_squad()
        for split in ({"a": 9, "b": 9}, {"a": 13, "b": 5}, {"a": 2, "b": 16}):
            assert interference_free_estimate(
                squad, profiles, split
            ) == pytest.approx(
                interference_free_estimate_scalar(squad, profiles, split),
                rel=1e-12,
            )

    def test_eq2_matches_scalar(self):
        squad, profiles = self.make_squad()
        assert workload_equivalence_estimate(squad, profiles) == pytest.approx(
            workload_equivalence_estimate_scalar(squad, profiles), rel=1e-12
        )

    def test_wave_matches_scalar(self):
        squad, profiles = self.make_squad()
        assert concurrent_wave_estimate(squad, profiles) == pytest.approx(
            concurrent_wave_estimate_scalar(squad, profiles), rel=1e-12
        )


class TestDeterminer:
    def test_single_request_gets_whole_gpu(self, toy_setup):
        _, profiles = toy_setup
        a = toy_app("a", [100.0], demand=1.0)
        squad = squad_of([(a, [0])])
        config = ExecutionConfigDeterminer(BlessConfig()).determine(
            squad, {"a": OfflineProfiler().profile(a)}
        )
        assert config.partitions is None

    def test_empty_squad_rejected(self):
        with pytest.raises(ValueError):
            ExecutionConfigDeterminer(BlessConfig()).determine(KernelSquad(), {})

    def test_spatial_chosen_for_saturating_pair(self, toy_setup):
        squad, profiles = toy_setup
        config = ExecutionConfigDeterminer(BlessConfig()).determine(squad, profiles)
        assert config.is_spatial
        assert sum(config.partitions.values()) == 18

    def test_split_biased_toward_longer_stack(self, toy_setup):
        squad, profiles = toy_setup
        config = ExecutionConfigDeterminer(BlessConfig()).determine(squad, profiles)
        assert config.partitions["a"] > config.partitions["b"]

    def test_enumeration_finds_true_optimum(self, toy_setup):
        squad, profiles = toy_setup
        determiner = ExecutionConfigDeterminer(BlessConfig())
        best = determiner.determine(squad, profiles)
        # Brute force over all splits must not beat it.
        for first in range(1, 18):
            duration = interference_free_estimate(
                squad, profiles, {"a": first, "b": 18 - first}
            )
            assert best.predicted_duration_us <= duration + 1e-9

    @pytest.mark.parametrize("k", [6, 9, 18, 19])
    def test_every_k_matches_the_oracle(self, k, monkeypatch):
        """Every K <= N is enumerated in full: at K = 6 and 9 (6,188 and
        24,310 splits) and K = N (one split) the pick is the oracle's
        scan's; at K = 19 no split exists, so the plan is unrestricted."""
        monkeypatch.setattr(configurator, "_DECISIONS", {})
        config = BlessConfig()
        apps = [
            toy_app(f"m{i}", [40.0 + 37.0 * i, 25.0 + 11.0 * (i % 4)], demand=1.0)
            for i in range(k)
        ]
        profiler = OfflineProfiler(config=config)
        squad = squad_of([(a, [0, 1]) for a in apps])
        profiles = {a.app_id: profiler.profile(a) for a in apps}
        result = ExecutionConfigDeterminer(config).determine(squad, profiles)
        expected = oracle_determine(squad, profiles, config)
        assert result.partitions == expected.partitions
        assert result.rear_counts == expected.rear_counts
        assert result.predicted_duration_us == pytest.approx(
            expected.predicted_duration_us, rel=1e-12
        )
        if k <= config.num_partitions:
            assert result.is_spatial
            assert sum(result.partitions.values()) == config.num_partitions
        else:
            assert result.partitions is None

    def test_more_requests_than_partitions_falls_back_to_nsp(self):
        config = BlessConfig(num_partitions=2)
        a = toy_app("a", [10.0])
        b = toy_app("b", [10.0])
        c = toy_app("c", [10.0])
        profiler = OfflineProfiler(config=config)
        squad = squad_of([(x, [0]) for x in (a, b, c)])
        profiles = {x.app_id: profiler.profile(x) for x in (a, b, c)}
        result = ExecutionConfigDeterminer(config).determine(squad, profiles)
        assert result.partitions is None

    def test_unrestricted_wins_when_halving_stretches_the_long_stack(self):
        """On two partitions the saturating stack doubles, so the
        concurrent-wave estimate (~151.9us, the light kernel fitting
        beside it) beats the best split's 195us."""
        config = BlessConfig(num_partitions=2)
        a = toy_app("a", [100.0], demand=1.0)
        b = toy_app("b", [50.0], demand=0.2)
        profiler = OfflineProfiler(config=config)
        squad = squad_of([(a, [0]), (b, [0])])
        profiles = {"a": profiler.profile(a), "b": profiler.profile(b)}
        result = ExecutionConfigDeterminer(config).determine(squad, profiles)
        expected = oracle_determine(squad, profiles, config)
        assert result.partitions is expected.partitions is None
        assert result.predicted_duration_us == pytest.approx(
            expected.predicted_duration_us, rel=1e-12
        )
        best_split = exhaustive_spatial(squad, profiles, ["a", "b"], 2)
        assert result.predicted_duration_us == pytest.approx(151.89, abs=0.01)
        assert best_split.predicted_duration_us == pytest.approx(195.0)

    def test_adaptive_rear_counts_attached(self, toy_setup):
        squad, profiles = toy_setup
        config = ExecutionConfigDeterminer(BlessConfig()).determine(squad, profiles)
        assert config.rear_counts is not None
        assert all(0 <= v <= 2 for v in config.rear_counts.values())

    def test_static_mode_has_no_rear_counts(self, toy_setup):
        squad, profiles = toy_setup
        determiner = ExecutionConfigDeterminer(BlessConfig(semi_sp_mode="static"))
        config = determiner.determine(squad, profiles)
        assert config.rear_counts is None


class TestQuotaProportional:
    def test_split_follows_quotas(self):
        a = toy_app("a", [100.0] * 2)
        b = toy_app("b", [100.0] * 2)
        a = a.with_quota(0.75, app_id="a")
        b = b.with_quota(0.25, app_id="b")
        profiler = OfflineProfiler()
        squad = squad_of([(a, [0, 1]), (b, [0, 1])])
        profiles = {"a": profiler.profile(a), "b": profiler.profile(b)}
        config = quota_proportional_config(
            squad, profiles, {"a": 0.75, "b": 0.25}, BlessConfig()
        )
        assert config.partitions["a"] > config.partitions["b"]
        assert sum(config.partitions.values()) == 18

    def test_more_requests_than_partitions_runs_unrestricted(self):
        """Regression: with K > N the fallback gave some app partition 0."""
        config = BlessConfig(num_partitions=3)
        apps = [toy_app(x, [10.0, 20.0]) for x in ("a", "b", "c", "d")]
        profiler = OfflineProfiler(config=config)
        squad = squad_of([(x, [0, 1]) for x in apps])
        profiles = {x.app_id: profiler.profile(x) for x in apps}
        quotas = {x.app_id: 0.25 for x in apps}
        plan = quota_proportional_config(squad, profiles, quotas, config)
        assert plan.partitions is None
        assert plan.predicted_duration_us == workload_equivalence_estimate(
            squad, profiles
        )

    def test_serve_without_determiner_more_apps_than_partitions(self):
        config = BlessConfig(num_partitions=3, use_config_determiner=False)
        result = BlessRuntime(config=config).serve(
            bind_load(multi_app_mix(4), "C", requests=3)
        )
        assert len(result.records) == 4 * 3
