"""Unit tests for the hardware scheduler's SM allocation."""

import pytest

from repro.gpusim.context import GPUContext
from repro.gpusim.hwsched import allocate, waterfill
from repro.gpusim.kernel import KernelInstance, KernelSpec
from repro.gpusim.stream import DeviceQueue


def running_kernel(demand, ctx):
    spec = KernelSpec(name="k", base_duration_us=100.0, sm_demand=demand)
    inst = KernelInstance(spec)
    inst.queue = DeviceQueue(context=ctx)
    return inst


def setup(demands_limits):
    """demands_limits: list of (demand, context_limit), one context each."""
    return [
        running_kernel(
            demand, GPUContext(context_id=i, owner=f"o{i}", sm_limit=limit)
        )
        for i, (demand, limit) in enumerate(demands_limits)
    ]


class TestWaterfill:
    def test_empty(self):
        assert waterfill([], 1.0) == []

    def test_all_satisfied_when_capacity_ample(self):
        assert waterfill([0.2, 0.3], 1.0) == pytest.approx([0.2, 0.3])

    def test_equal_split_when_oversubscribed(self):
        assert waterfill([1.0, 1.0], 1.0) == pytest.approx([0.5, 0.5])

    def test_max_min_fairness(self):
        # Small demand fully satisfied; leftovers to the big one.
        alloc = waterfill([0.2, 1.0], 1.0)
        assert alloc == pytest.approx([0.2, 0.8])

    def test_never_exceeds_demand(self):
        alloc = waterfill([0.1, 0.2, 0.3], 10.0)
        assert alloc == pytest.approx([0.1, 0.2, 0.3])

    def test_total_never_exceeds_capacity(self):
        alloc = waterfill([0.9, 0.9, 0.9], 1.0)
        assert sum(alloc) == pytest.approx(1.0)


class TestFairPolicy:
    def test_respects_context_limit(self):
        [alloc] = allocate(setup([(1.0, 0.25)]))
        assert alloc.sm_fraction == pytest.approx(0.25)

    def test_two_contexts_share_gpu(self):
        allocs = allocate(setup([(1.0, 1.0), (1.0, 1.0)]))
        assert sorted(a.sm_fraction for a in allocs) == pytest.approx([0.5, 0.5])

    def test_fitting_demands_both_satisfied(self):
        allocs = allocate(setup([(0.3, 1.0), (0.6, 1.0)]))
        assert sorted(a.sm_fraction for a in allocs) == pytest.approx([0.3, 0.6])

    def test_one_context_splits_its_limit(self):
        # The engine never runs two kernels in one context, but the
        # reference keeps MPS semantics for them.
        ctx = GPUContext(context_id=0, owner="o", sm_limit=0.5)
        allocs = allocate([running_kernel(0.5, ctx), running_kernel(0.5, ctx)])
        assert [a.sm_fraction for a in allocs] == pytest.approx([0.25, 0.25])

    def test_empty_running_set(self):
        assert allocate([]) == []

    def test_total_capped_at_one(self):
        allocs = allocate(setup([(1.0, 0.7), (1.0, 0.7)]))
        assert sum(a.sm_fraction for a in allocs) <= 1.0 + 1e-9
