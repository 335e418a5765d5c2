"""Integration tests for the discrete-event engine."""

import pytest

from repro.gpusim.context import ContextRegistry
from repro.gpusim.device import GPUDevice, GPUSpec
from repro.gpusim.engine import SimEngine
from repro.gpusim.kernel import KernelInstance, KernelKind, KernelSpec


def make_engine(**kwargs):
    engine = SimEngine(device=GPUDevice(GPUSpec()), **kwargs)
    registry = ContextRegistry(engine.device)
    return engine, registry


def compute(name="k", dur=100.0, demand=0.8, mem=0.0, gap=0.0):
    return KernelSpec(
        name=name, base_duration_us=dur, sm_demand=demand,
        mem_intensity=mem, dispatch_gap_us=gap,
    )


class TestBasicExecution:
    def test_single_kernel_runs_to_completion(self):
        engine, registry = make_engine()
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        done = []
        engine.launch(KernelInstance(compute()), queue, on_finish=lambda k: done.append(k))
        engine.run()
        assert len(done) == 1
        assert engine.now == pytest.approx(3.0 + 100.0)  # launch + duration

    def test_zero_launch_overhead(self):
        engine, registry = make_engine()
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        engine.launch(KernelInstance(compute()), queue, launch_overhead=0.0)
        engine.run()
        assert engine.now == pytest.approx(100.0)

    def test_fifo_order_within_queue(self):
        engine, registry = make_engine()
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        order = []
        for i in range(4):
            engine.launch(
                KernelInstance(compute(name=f"k{i}", dur=10.0)),
                queue,
                on_finish=lambda k: order.append(k.name),
            )
        engine.run()
        assert order == ["k0", "k1", "k2", "k3"]

    def test_sync_kernel_completes_instantly(self):
        engine, registry = make_engine()
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        spec = KernelSpec(name="s", kind=KernelKind.SYNC, base_duration_us=0.0, sm_demand=0.01)
        done = []
        engine.launch(KernelInstance(spec), queue, launch_overhead=0.0,
                      on_finish=lambda k: done.append(k))
        engine.run()
        assert done and engine.now == pytest.approx(0.0)

    def test_kernels_completed_counter(self):
        engine, registry = make_engine()
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        for i in range(3):
            engine.launch(KernelInstance(compute(dur=5.0)), queue)
        engine.run()
        assert engine.kernels_completed == 3


class TestConcurrency:
    def test_restricted_contexts_share_and_slow_down(self):
        engine, registry = make_engine()
        qa = engine.create_queue(registry.create("a", 0.5, charge_memory=False))
        qb = engine.create_queue(registry.create("b", 0.5, charge_memory=False))
        engine.launch(KernelInstance(compute(demand=1.0)), qa, launch_overhead=0.0)
        engine.launch(KernelInstance(compute(demand=1.0)), qb, launch_overhead=0.0)
        engine.run()
        # Each kernel gets half the GPU: slowdown ~1.9x, in parallel.
        assert 180.0 < engine.now < 200.0

    def test_unrestricted_solo_runs_full_speed(self):
        engine, registry = make_engine()
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        engine.launch(KernelInstance(compute(demand=1.0)), queue, launch_overhead=0.0)
        engine.run()
        assert engine.now == pytest.approx(100.0)

    def test_small_demands_fit_concurrently(self):
        engine, registry = make_engine()
        qa = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        qb = engine.create_queue(registry.create("b", 1.0, charge_memory=False))
        engine.launch(KernelInstance(compute(demand=0.4)), qa, launch_overhead=0.0)
        engine.launch(KernelInstance(compute(demand=0.4)), qb, launch_overhead=0.0)
        engine.run()
        # Combined demand fits the GPU: both at full speed.
        assert engine.now == pytest.approx(100.0)

    def test_one_live_queue_per_context(self):
        engine, registry = make_engine()
        ctx = registry.create("a", 0.5, charge_memory=False)
        queue = engine.create_queue(ctx)
        with pytest.raises(ValueError, match="live queue"):
            engine.create_queue(ctx)
        # A context freed by remove_queue takes a new queue, which runs.
        engine.remove_queue(queue)
        fresh = engine.create_queue(ctx)
        engine.launch(KernelInstance(compute(demand=0.5)), fresh, launch_overhead=0.0)
        engine.run()
        assert engine.now == pytest.approx(100.0)
        assert engine.queues == [fresh]
        # So does one freed by kill_context.
        engine.kill_context(ctx)
        assert engine.create_queue(ctx).context is ctx


class TestMemcpyAndPcie:
    def test_memcpy_duration(self):
        engine, registry = make_engine()
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        spec = KernelSpec(name="h2d", kind=KernelKind.H2D, base_duration_us=40.0, sm_demand=0.01)
        engine.launch(KernelInstance(spec), queue, launch_overhead=0.0)
        engine.run()
        assert engine.now == pytest.approx(40.0)

    def test_concurrent_transfers_share_link(self):
        engine, registry = make_engine()
        qa = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        qb = engine.create_queue(registry.create("b", 1.0, charge_memory=False))
        for q in (qa, qb):
            spec = KernelSpec(name="x", kind=KernelKind.H2D, base_duration_us=40.0, sm_demand=0.01)
            engine.launch(KernelInstance(spec), q, launch_overhead=0.0)
        engine.run()
        assert engine.now == pytest.approx(80.0)

    def test_memcpy_does_not_occupy_sms(self):
        engine, registry = make_engine()
        qa = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        qb = engine.create_queue(registry.create("b", 1.0, charge_memory=False))
        h2d = KernelSpec(name="h", kind=KernelKind.H2D, base_duration_us=100.0, sm_demand=0.01)
        engine.launch(KernelInstance(h2d), qa, launch_overhead=0.0)
        engine.launch(KernelInstance(compute(demand=1.0)), qb, launch_overhead=0.0)
        engine.run()
        # Compute kernel unaffected by the transfer.
        assert engine.now == pytest.approx(100.0)


class TestDispatchGaps:
    def test_gap_delays_next_kernel(self):
        engine, registry = make_engine()
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        engine.launch(KernelInstance(compute(dur=10.0)), queue, launch_overhead=0.0)
        engine.launch(KernelInstance(compute(dur=10.0, gap=30.0)), queue, launch_overhead=0.0)
        engine.run()
        assert engine.now == pytest.approx(10.0 + 30.0 + 10.0)

    def test_first_kernel_gap_not_charged(self):
        engine, registry = make_engine()
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        engine.launch(KernelInstance(compute(dur=10.0, gap=500.0)), queue, launch_overhead=0.0)
        engine.run()
        # Queue had no predecessor: ready immediately.
        assert engine.now == pytest.approx(10.0)

    def test_other_queue_fills_the_gap(self):
        engine, registry = make_engine()
        qa = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        qb = engine.create_queue(registry.create("b", 1.0, charge_memory=False))
        engine.launch(KernelInstance(compute(dur=10.0, demand=1.0)), qa, launch_overhead=0.0)
        engine.launch(
            KernelInstance(compute(dur=20.0, demand=1.0, gap=50.0)), qa, launch_overhead=0.0
        )
        finish = {}
        engine.launch(
            KernelInstance(compute(dur=30.0, demand=1.0)), qb, launch_overhead=0.0,
            on_finish=lambda k: finish.setdefault("b", engine.now),
        )
        engine.run()
        # B's kernel shares initially, then runs alone in A's gap.
        assert finish["b"] < 10.0 + 50.0 + 20.0


class TestUtilizationAccounting:
    def test_full_utilization_for_dense_solo(self):
        engine, registry = make_engine()
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        engine.launch(KernelInstance(compute(demand=1.0)), queue, launch_overhead=0.0)
        engine.run()
        assert engine.utilization() == pytest.approx(1.0)

    def test_partial_utilization_for_narrow_kernel(self):
        engine, registry = make_engine()
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        engine.launch(KernelInstance(compute(demand=0.5)), queue, launch_overhead=0.0)
        engine.run()
        assert engine.utilization() == pytest.approx(0.5)



class TestTimeline:
    def test_timeline_recorded_when_enabled(self):
        engine, registry = make_engine(record_timeline=True)
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        engine.launch(KernelInstance(compute()), queue, launch_overhead=0.0)
        engine.run()
        assert engine.timeline
        assert engine.timeline[0].busy_fraction > 0

    def test_timeline_absent_when_disabled(self):
        engine, registry = make_engine(record_timeline=False)
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        engine.launch(KernelInstance(compute()), queue, launch_overhead=0.0)
        engine.run()
        assert engine.timeline == []


class TestEventMachinery:
    def test_schedule_and_cancel(self):
        engine, _ = make_engine()
        fired = []
        event = engine.schedule(10.0, lambda: fired.append(1))
        engine.schedule(5.0, lambda: engine.cancel(event))
        engine.run()
        assert not fired

    def test_negative_delay_rejected(self):
        engine, _ = make_engine()
        with pytest.raises(ValueError):
            engine.schedule(-1.0, lambda: None)

    def test_run_until_pauses_clock(self):
        engine, _ = make_engine()
        engine.schedule(100.0, lambda: None)
        engine.run(until=50.0)
        assert engine.now == pytest.approx(50.0)
        engine.run()
        assert engine.now == pytest.approx(100.0)

    def test_no_float_stall_at_large_times(self):
        """Regression: completions at large `now` must not loop forever."""
        engine, registry = make_engine()
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        engine.schedule(5_000_000.0, lambda: engine.launch(
            KernelInstance(compute(dur=0.5)), queue, launch_overhead=0.0
        ))
        engine.run(max_events=10_000)
        assert engine.kernels_completed == 1

    def test_event_ordering_is_fifo_for_same_time(self):
        engine, _ = make_engine()
        order = []
        engine.schedule(1.0, lambda: order.append("first"))
        engine.schedule(1.0, lambda: order.append("second"))
        engine.run()
        assert order == ["first", "second"]

    @pytest.mark.parametrize("host_first", [True, False])
    def test_completion_ties_a_host_event_in_scheduling_order(self, host_first):
        # The completion is a pseudo-event outside the heap; at equal
        # times it still fires in the order it was scheduled.
        engine, registry = make_engine()
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        order = []
        if host_first:
            engine.schedule(100.0, lambda: order.append("host"))
        engine.launch(
            KernelInstance(compute(dur=100.0, demand=1.0)), queue,
            launch_overhead=0.0, on_finish=lambda k: order.append(engine.now),
        )
        if not host_first:
            engine.schedule(100.0, lambda: order.append("host"))
        engine.run()
        assert order == (["host", 100.0] if host_first else [100.0, "host"])
