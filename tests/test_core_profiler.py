"""Tests for the offline profiler (§4.2)."""

import numpy as np
import pytest

from repro.apps.models import MODEL_NAMES, inference_app, training_app
from repro.core.config import BlessConfig
from repro.core.profiler import OfflineProfiler, profile_via_simulation
from repro.core.runtime import BlessRuntime
from repro.workloads.suite import bind_closed_loop

from .app_variants import other_trace


@pytest.fixture(scope="module")
def profile():
    return OfflineProfiler().profile(inference_app("R50"))


class TestProfileShape:
    def test_dimensions(self, profile):
        app = inference_app("R50")
        assert profile.durations.shape == (18, len(app.kernels))
        assert profile.elapsed.shape == profile.durations.shape
        assert profile.num_kernels == len(app.kernels)

    def test_demand_is_spec_demand(self, profile):
        app = inference_app("R50")
        assert profile.sm_demand[3] == app.kernels[3].sm_demand

    def test_gaps_recorded(self, profile):
        app = inference_app("R50")
        assert profile.gaps.sum() == pytest.approx(app.total_gap_us)


class TestProfileSemantics:
    def test_iso_latency_decreases_with_partition(self, profile):
        latencies = [profile.iso_latency(p) for p in range(1, 19)]
        assert latencies == sorted(latencies, reverse=True)

    def test_full_partition_matches_solo_span(self, profile):
        app = inference_app("R50")
        assert profile.iso_latency(18) == pytest.approx(app.solo_span_us)

    def test_tau_monotone_in_kernel_index(self, profile):
        taus = [profile.tau(9, k) for k in range(profile.num_kernels)]
        assert taus == sorted(taus)

    def test_duration_at_least_base(self, profile):
        app = inference_app("R50")
        for k in (0, 10, 40):
            assert profile.duration(9, k) >= app.kernels[k].base_duration_us - 1e-9

    def test_step_cost_adds_gap(self, profile):
        k = 5
        assert profile.step_cost(18, k) == pytest.approx(
            profile.duration(18, k) + profile.gaps[k]
        )

    def test_stack_costs_include_gaps(self, profile):
        stack = profile.stack_costs(range(10))
        assert stack.shape == (profile.num_partitions,)
        for partition in (18, 9):
            assert stack[partition - 1] == pytest.approx(
                profile.durations[partition - 1, :10].sum() + profile.gaps[:10].sum()
            )
        assert profile.stack_costs([]).tolist() == [0.0] * profile.num_partitions

    def test_duration_at_fraction_interpolates(self, profile):
        k = 3
        mid = profile.duration_at_fraction(0.5, k)
        assert profile.duration(18, k) <= mid <= profile.duration(1, k)

    def test_mean_kernel_duration(self, profile):
        assert profile.mean_kernel_duration() == pytest.approx(
            float(np.mean(profile.durations[-1]))
        )


class TestProfilerBehaviour:
    def test_caching_by_app_name(self):
        profiler = OfflineProfiler()
        a = profiler.profile(inference_app("VGG"))
        b = profiler.profile(inference_app("VGG"))
        assert a is b

    def test_same_name_other_trace_gets_its_own_profile(self):
        """A copy with fewer dispatch gaps keeps the app's name but not
        its trace."""
        profiler = OfflineProfiler()
        plain = profiler.profile(inference_app("R50"))
        copy = profiler.profile(other_trace(inference_app("R50")))
        assert copy is not plain
        assert copy.digest != plain.digest

    def test_runtime_profiles_each_trace_of_one_name(self):
        """One runtime serving R50 and a same-named copy with fewer gaps
        profiles each app from its own kernels."""
        plain = inference_app("R50").with_quota(0.5, app_id="plain")
        copy = other_trace(inference_app("R50")).with_quota(0.5, app_id="copy")
        runtime = BlessRuntime()
        runtime.serve(bind_closed_loop([plain, copy], factor=1.0, requests=2))
        for app in (plain, copy):
            gaps = runtime.profiles[app.app_id].gaps
            assert gaps.tolist() == [k.dispatch_gap_us for k in app.kernels]
        assert (
            runtime.profiles["plain"].gaps.sum()
            > runtime.profiles["copy"].gaps.sum()
        )

    def test_custom_partition_count(self):
        config = BlessConfig(num_partitions=9)
        profile = OfflineProfiler(config=config).profile(inference_app("VGG"))
        assert profile.durations.shape[0] == 9

    def test_profiling_cost_positive_and_reported(self):
        profile = OfflineProfiler().profile(inference_app("VGG"))
        # Table 1: sub-second profiling cost for the small models.
        assert 0.0 < profile.profiling_cost_us < 5e6


class TestAnalyticVsSimulated:
    """The profiler's analytic durations must match a simulated solo run
    (same scaling law, no co-runners)."""

    @pytest.mark.parametrize("partition", [18, 9, 5])
    def test_agreement(self, partition):
        app = inference_app("VGG")
        profile = OfflineProfiler().profile(app)
        measured = profile_via_simulation(app, partition)
        analytic = profile.durations[partition - 1]
        assert np.allclose(measured, analytic, rtol=1e-6)


def _table1_profiles():
    for model in MODEL_NAMES:
        for app in (inference_app(model), training_app(model)):
            yield OfflineProfiler().profile(app)


class TestFrozenTables:
    """The process-wide profile table shares each profile with every
    later run, so its arrays must be read-only, and the accessors must
    return exactly the arrays' values as Python floats."""

    @pytest.mark.parametrize(
        "name", ["durations", "elapsed", "sm_demand", "gaps", "mem_intensity"]
    )
    def test_in_place_write_rejected(self, profile, name):
        array = getattr(profile, name)
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1.0
        with pytest.raises(ValueError):
            array += 1.0

    def test_accessors_equal_arrays_exactly(self):
        for profile in _table1_profiles():
            for partition in range(1, profile.num_partitions + 1):
                row = partition - 1
                assert profile.iso_latency(partition) == float(profile.elapsed[row, -1])
                taus = [profile.tau(partition, k) for k in range(profile.num_kernels)]
                costs = [
                    profile.step_cost(partition, k) for k in range(profile.num_kernels)
                ]
                assert taus == [float(x) for x in profile.elapsed[row]]
                assert costs == [
                    float(d + g) for d, g in zip(profile.durations[row], profile.gaps)
                ]
                assert all(type(x) is float for x in taus + costs)
