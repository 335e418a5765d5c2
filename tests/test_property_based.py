"""Property-based tests (hypothesis) on core invariants."""


from hypothesis import given, settings, strategies as st

from repro.analysis.bubbles import _merge_windows
from repro.apps.application import Application, AppKind, Request
from repro.core.config import BlessConfig
from repro.core.configurator import composition_count
from repro.core.profiler import OfflineProfiler
from repro.core.progress import AppPlan, RequestProgress
from repro.core.squad import generate_squad
from repro.gpusim.device import MemoryPool
from repro.gpusim.hwsched import waterfill
from repro.gpusim.interference import MAX_SLOWDOWN, slowdowns
from repro.gpusim.kernel import KernelSpec

from .config_oracle import compositions

fractions = st.floats(min_value=0.01, max_value=1.0)
intensities = st.floats(min_value=0.0, max_value=1.0)


class TestWaterfillProperties:
    @given(
        demands=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=10),
        capacity=st.floats(min_value=0.0, max_value=2.0),
    )
    def test_feasibility(self, demands, capacity):
        alloc = waterfill(demands, capacity)
        assert len(alloc) == len(demands)
        # Never exceeds demand nor capacity.
        for a, d in zip(alloc, demands):
            assert a <= d + 1e-9
            assert a >= -1e-12
        assert sum(alloc) <= capacity + 1e-9

    @given(
        demands=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=8),
        capacity=st.floats(min_value=0.1, max_value=1.0),
    )
    def test_work_conserving(self, demands, capacity):
        """Either every demand is met, or the capacity is exhausted."""
        alloc = waterfill(demands, capacity)
        all_met = all(abs(a - d) < 1e-9 for a, d in zip(alloc, demands))
        capacity_used = abs(sum(alloc) - capacity) < 1e-6
        assert all_met or capacity_used

    @given(
        demands=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=8),
    )
    def test_max_min_fairness_envy_free(self, demands):
        """No kernel with unmet demand receives less than another's
        allocation (max-min property)."""
        alloc = waterfill(demands, 1.0)
        for i, (a_i, d_i) in enumerate(zip(alloc, demands)):
            if a_i < d_i - 1e-9:  # unsatisfied
                for a_j in alloc:
                    assert a_i >= a_j - 1e-9


class TestKernelScalingProperties:
    @given(
        demand=fractions,
        duration=st.floats(min_value=1.0, max_value=3000.0),
        f1=fractions,
        f2=fractions,
    )
    def test_duration_monotone_nonincreasing(self, demand, duration, f1, f2):
        spec = KernelSpec(name="k", base_duration_us=duration, sm_demand=demand)
        lo, hi = sorted((f1, f2))
        assert spec.duration_at(lo) >= spec.duration_at(hi) - 1e-9

    @given(demand=fractions, duration=st.floats(min_value=1.0, max_value=3000.0))
    def test_duration_floor_is_base(self, demand, duration):
        spec = KernelSpec(name="k", base_duration_us=duration, sm_demand=demand)
        assert spec.duration_at(1.0) >= duration - 1e-9
        assert spec.duration_at(demand) == spec.duration_at(1.0)

    @given(demand=fractions, fraction=fractions)
    def test_rate_bounded(self, demand, fraction):
        spec = KernelSpec(name="k", base_duration_us=100.0, sm_demand=demand)
        assert 0.0 < spec.rate_at(fraction) <= 1.0 + 1e-12


class TestInterferenceProperties:
    @given(
        kernels=st.lists(
            st.tuples(intensities, st.booleans()), min_size=1, max_size=8
        )
    )
    def test_slowdowns_bounded(self, kernels):
        values = slowdowns(kernels)
        assert len(values) == len(kernels)
        for v in values:
            assert 1.0 <= v <= MAX_SLOWDOWN + 1e-12

    @given(m=intensities, other=intensities)
    def test_restricted_never_worse_than_scattered(self, m, other):
        scattered = slowdowns([(m, False), (other, False)])[0]
        pinned = slowdowns([(m, True), (other, True)])[0]
        assert pinned <= scattered + 1e-12


class TestCompositionsProperties:
    @given(n=st.integers(min_value=2, max_value=12), k=st.integers(min_value=1, max_value=5))
    def test_count_matches_enumeration(self, n, k):
        if k > n:
            return
        splits = list(compositions(n, k))
        assert len(splits) == composition_count(n, k)
        for split in splits:
            assert sum(split) == n
            assert all(part >= 1 for part in split)


class TestSquadGenerationProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        num_kernels=st.integers(min_value=2, max_value=40),
        cap=st.integers(min_value=1, max_value=60),
        arrivals=st.lists(
            st.floats(min_value=0.0, max_value=10_000.0), min_size=1, max_size=3
        ),
    )
    def test_invariants(self, num_kernels, cap, arrivals):
        config = BlessConfig(max_kernels_per_squad=cap)
        profiler = OfflineProfiler(config=config)
        progresses = []
        for index, arrival in enumerate(arrivals):
            kernels = [
                KernelSpec(name=f"k{i}", base_duration_us=50.0, sm_demand=0.5)
                for i in range(num_kernels)
            ]
            app = Application(
                name=f"app{index}", kind=AppKind.INFERENCE, kernels=kernels,
                memory_mb=10, quota=1.0 / len(arrivals), app_id=f"app{index}",
            )
            profile = profiler.profile(app)
            partition = config.nearest_partition(app.quota)
            progresses.append(
                RequestProgress(
                    Request(app=app, arrival_time=arrival),
                    AppPlan(profile, partition, profile.iso_latency(partition)),
                )
            )
        now = max(arrivals) + 100.0
        squad = generate_squad(progresses, now, config)
        # Invariant 1: never exceeds the cap.
        assert squad.total_kernels <= cap
        # Invariant 2: per-request indices are contiguous and in range.
        for entry in squad.entries.values():
            idx = entry.kernel_indices
            assert idx == sorted(idx)
            assert idx == list(range(idx[0], idx[-1] + 1))
            assert idx[-1] < num_kernels
        # Invariant 3: next_kernel advanced consistently.
        for progress in progresses:
            entry = squad.entries.get(progress.request.app.app_id)
            scheduled = entry.count if entry else 0
            assert progress.request.next_kernel == scheduled


class TestMemoryPoolProperties:
    @given(
        sizes=st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=20)
    )
    def test_conservation(self, sizes):
        pool = MemoryPool(capacity_mb=10_000)
        allocated = 0
        for i, size in enumerate(sizes):
            if allocated + size <= pool.capacity_mb:
                pool.allocate(f"o{i}", size)
                allocated += size
        assert pool.used_mb == allocated
        assert pool.free_mb == pool.capacity_mb - allocated


class TestWindowMergeProperties:
    @given(
        windows=st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1000),
                st.floats(min_value=0, max_value=1000),
            ),
            max_size=15,
        )
    )
    def test_merge_invariants(self, windows):
        merged = _merge_windows(windows)
        # Sorted, non-overlapping, and total length preserved or reduced.
        for (s1, e1), (s2, e2) in zip(merged, merged[1:]):
            assert e1 < s2
            assert s1 <= e1 and s2 <= e2
        raw = sum(max(0.0, e - s) for s, e in windows)
        total = sum(e - s for s, e in merged)
        assert total <= raw + 1e-9
