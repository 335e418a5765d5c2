"""Unit tests for the device model: spec, memory pool, contexts, queues."""

import pytest

from repro.gpusim.context import ContextRegistry, GPUContext
from repro.gpusim.device import GPUDevice, GPUSpec, MemoryPool, OutOfMemoryError
from repro.gpusim.kernel import KernelInstance, KernelSpec
from repro.gpusim.stream import DeviceQueue


class TestGPUSpec:
    def test_defaults_model_a100(self):
        spec = GPUSpec()
        assert spec.num_sms == 108
        assert spec.memory_mb == 40 * 1024

    def test_sm_fraction_roundtrip(self):
        spec = GPUSpec()
        assert spec.sm_fraction(54) == pytest.approx(0.5)
        assert spec.sm_count(0.5) == 54

    def test_sm_fraction_bounds(self):
        spec = GPUSpec()
        with pytest.raises(ValueError):
            spec.sm_fraction(109)
        with pytest.raises(ValueError):
            spec.sm_count(1.5)


class TestMemoryPool:
    def test_allocate_and_release(self):
        pool = MemoryPool(capacity_mb=1000)
        pool.allocate("a", 400)
        assert pool.used_mb == 400
        assert pool.free_mb == 600
        assert pool.release("a") == 400
        assert pool.used_mb == 0

    def test_oom_raises(self):
        pool = MemoryPool(capacity_mb=100)
        with pytest.raises(OutOfMemoryError):
            pool.allocate("a", 200)

    def test_cumulative_allocations(self):
        pool = MemoryPool(capacity_mb=100)
        pool.allocate("a", 30)
        pool.allocate("a", 30)
        assert pool.owned_by("a") == 60
        with pytest.raises(OutOfMemoryError):
            pool.allocate("b", 50)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            MemoryPool(100).allocate("a", -1)

    def test_release_unknown_owner_is_zero(self):
        assert MemoryPool(100).release("ghost") == 0


class TestContexts:
    def test_context_limit_validation(self):
        with pytest.raises(ValueError):
            GPUContext(context_id=0, owner="a", sm_limit=0.0)
        with pytest.raises(ValueError):
            GPUContext(context_id=0, owner="a", sm_limit=1.5)

    def test_restricted_predicate(self):
        assert GPUContext(0, "a", 0.5).restricted
        assert not GPUContext(0, "a", 1.0).restricted

    def test_registry_charges_mps_memory(self):
        device = GPUDevice()
        registry = ContextRegistry(device)
        before = device.memory.free_mb
        registry.create("a", 0.5)
        assert device.memory.free_mb == before - device.spec.mps_context_mb

    def test_registry_destroy_releases_memory(self):
        device = GPUDevice()
        registry = ContextRegistry(device)
        ctx = registry.create("a", 0.5)
        before = device.memory.free_mb
        registry.destroy(ctx)
        assert device.memory.free_mb == before + device.spec.mps_context_mb
        assert ctx not in registry.contexts

    def test_find_by_owner_and_limit(self):
        registry = ContextRegistry(GPUDevice())
        ctx = registry.create("a", 0.5, charge_memory=False)
        assert registry.owned_by("a") == [ctx]

    def test_unique_context_ids(self):
        registry = ContextRegistry(GPUDevice())
        a = registry.create("a", 1.0, charge_memory=False)
        b = registry.create("b", 1.0, charge_memory=False)
        assert a.context_id != b.context_id


class TestDeviceQueue:
    def _queue(self):
        return DeviceQueue(context=GPUContext(0, "a", 1.0))

    def _kernel(self, gap=0.0):
        return KernelInstance(
            KernelSpec(name="k", base_duration_us=10.0, sm_demand=0.5, dispatch_gap_us=gap)
        )

    def test_push_and_head(self):
        queue = self._queue()
        kernel = self._kernel()
        queue.push(kernel, now=5.0)
        assert queue.depth == 1
        assert queue.head() is kernel
        assert kernel.enqueue_time == 5.0

    def test_start_and_finish_lifecycle(self):
        queue = self._queue()
        kernel = self._kernel()
        queue.push(kernel, 0.0)
        started = queue.start_head(1.0)
        assert started is kernel and queue.running is kernel
        assert queue.head() is None  # busy
        finished = queue.finish_running(2.0)
        assert finished.finish_time == 2.0
        assert queue.last_finish_time == 2.0
        assert queue.empty

    def test_start_without_pending_raises(self):
        with pytest.raises(RuntimeError):
            self._queue().start_head(0.0)

    def test_double_start_raises(self):
        queue = self._queue()
        queue.push(self._kernel(), 0.0)
        queue.push(self._kernel(), 0.0)
        queue.start_head(0.0)
        with pytest.raises(RuntimeError):
            queue.start_head(0.0)

    def test_head_ready_at_respects_gap(self):
        queue = self._queue()
        queue.push(self._kernel(), 0.0)
        queue.start_head(0.0)
        queue.finish_running(10.0)
        queue.push(self._kernel(gap=25.0), 10.0)
        assert queue.head_ready_at() == pytest.approx(35.0)

    def test_head_ready_immediately_on_fresh_queue(self):
        queue = self._queue()
        queue.push(self._kernel(gap=100.0), 0.0)
        assert queue.head_ready_at() == pytest.approx(0.0)

    def test_drain_clears_pending(self):
        queue = self._queue()
        for _ in range(3):
            queue.push(self._kernel(), 0.0)
        assert queue.drain() == 3
        assert queue.empty
