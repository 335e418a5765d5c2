"""Edge-case tests for the engine's event machinery and queues."""

import math

import pytest

from repro.gpusim.context import ContextRegistry
from repro.gpusim.device import GPUDevice
from repro.gpusim.engine import SimEngine
from repro.gpusim.kernel import KernelInstance, KernelKind, KernelSpec


def make_engine():
    engine = SimEngine(device=GPUDevice())
    registry = ContextRegistry(engine.device)
    return engine, registry


def compute(name="k", dur=50.0, demand=0.5, gap=0.0):
    # Zero memory intensity: these tests isolate event mechanics from
    # the interference model.
    return KernelSpec(name=name, base_duration_us=dur, sm_demand=demand,
                      dispatch_gap_us=gap, mem_intensity=0.0)


class TestGapEvents:
    def test_gap_event_not_duplicated(self):
        """Several dispatch attempts during one gap schedule one wake."""
        engine, registry = make_engine()
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        engine.launch(KernelInstance(compute(dur=10.0)), queue, launch_overhead=0.0)
        engine.launch(KernelInstance(compute(dur=10.0, gap=100.0)), queue,
                      launch_overhead=0.0)
        # Poke the dispatcher repeatedly mid-gap via host events.
        for delay in (20.0, 40.0, 60.0):
            engine.schedule(delay, engine._dispatch)
        engine.run()
        assert engine.kernels_completed == 2
        assert engine.now == pytest.approx(10.0 + 100.0 + 10.0)

    def test_gap_applies_per_queue_not_globally(self):
        engine, registry = make_engine()
        qa = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        qb = engine.create_queue(registry.create("b", 1.0, charge_memory=False))
        engine.launch(KernelInstance(compute(dur=10.0, demand=0.4)), qa, launch_overhead=0.0)
        engine.launch(KernelInstance(compute(dur=10.0, demand=0.4, gap=200.0)), qa,
                      launch_overhead=0.0)
        done = {}
        engine.launch(
            KernelInstance(compute(dur=30.0, demand=0.4)), qb, launch_overhead=0.0,
            on_finish=lambda k: done.setdefault("b", engine.now),
        )
        engine.run()
        assert done["b"] == pytest.approx(30.0)  # b never waits for a's gap


class TestRunControl:
    def test_run_until_then_resume(self):
        engine, registry = make_engine()
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        engine.launch(KernelInstance(compute(dur=100.0, demand=1.0)), queue,
                      launch_overhead=0.0)
        engine.run(until=40.0)
        assert engine.now == pytest.approx(40.0)
        assert engine.has_running_kernels
        engine.run()
        assert engine.kernels_completed == 1

    def test_utilization_accrues_across_pause(self):
        engine, registry = make_engine()
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        engine.launch(KernelInstance(compute(dur=100.0, demand=1.0)), queue,
                      launch_overhead=0.0)
        engine.run(until=50.0)
        engine.run()
        assert engine.utilization() == pytest.approx(1.0, abs=0.01)

    def test_max_events_guard(self):
        engine, _ = make_engine()

        def reschedule():
            engine.schedule(1.0, reschedule)

        engine.schedule(1.0, reschedule)
        with pytest.raises(RuntimeError):
            engine.run(max_events=100)

    def test_running_kernels_listing(self):
        engine, registry = make_engine()
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        engine.launch(KernelInstance(compute(dur=100.0)), queue, launch_overhead=0.0)
        engine.run(until=10.0)
        assert len(engine.running_kernels) == 1

    def test_until_ignores_a_cancelled_heap_top(self):
        # The cancelled 5 us event tops the heap; the next live event
        # lies past `until`, so the run must stop at `until`.
        engine, _ = make_engine()
        fired = []
        engine.cancel(engine.schedule(5.0, lambda: fired.append(5.0)))
        engine.schedule(20.0, lambda: fired.append(20.0))
        assert engine.run(until=10.0) == 10.0
        assert fired == []
        assert engine.run() == 20.0
        assert fired == [20.0]


class TestLargeClock:
    @staticmethod
    def serve_burst(t0):
        """Two half-GPU queues of five kernels each (37.3 us and 91.7 us,
        demand 0.7, intensity 0.3) launched by a callback at ``t0``;
        returns (end time, kernels completed, events fired)."""
        engine, registry = make_engine()
        queues = [
            engine.create_queue(registry.create(name, 0.5, charge_memory=False))
            for name in ("a", "b")
        ]

        def launch():
            for queue, dur in zip(queues, (37.3, 91.7)):
                for index in range(5):
                    spec = KernelSpec(name=f"k{index}", base_duration_us=dur,
                                      sm_demand=0.7, mem_intensity=0.3)
                    engine.launch(KernelInstance(spec), queue)

        engine.schedule(t0, launch)
        end = engine.run(max_events=10_000)
        return end, engine.kernels_completed, engine.counters["events_processed"]

    @pytest.mark.parametrize("t0", [1e9, 1e12, 1e14])
    def test_finish_threshold_scales_with_the_clock(self, t0):
        # Far from t=0 a kernel's residual work after its epoch can be
        # ~rate * ulp(now), far above the 1e-9 floor: without the
        # rate-scaled bound it never drains and the run spins until
        # the event cap.
        makespan, completed, events = self.serve_burst(0.0)
        assert (completed, events) == (10, 21)
        end, completed, events = self.serve_burst(t0)
        assert (completed, events) == (10, 21)
        assert abs(end - (t0 + makespan)) <= 4 * math.ulp(end)


class TestMixedKinds:
    def test_sync_between_compute_kernels(self):
        engine, registry = make_engine()
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        order = []
        for spec in (
            compute("k1", dur=10.0),
            KernelSpec(name="sync", kind=KernelKind.SYNC, base_duration_us=0.0,
                       sm_demand=0.01),
            compute("k2", dur=10.0),
        ):
            engine.launch(KernelInstance(spec), queue, launch_overhead=0.0,
                          on_finish=lambda k: order.append(k.name))
        engine.run()
        assert order == ["k1", "sync", "k2"]
        assert engine.now == pytest.approx(20.0)

    def test_memcpy_then_compute_same_queue(self):
        engine, registry = make_engine()
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        h2d = KernelSpec(name="h2d", kind=KernelKind.H2D, base_duration_us=25.0,
                         sm_demand=0.01)
        engine.launch(KernelInstance(h2d), queue, launch_overhead=0.0)
        engine.launch(KernelInstance(compute(dur=10.0)), queue, launch_overhead=0.0)
        engine.run()
        assert engine.now == pytest.approx(35.0)

    def test_zero_duration_compute_completes(self):
        engine, registry = make_engine()
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        spec = KernelSpec(name="zero", base_duration_us=0.0, sm_demand=0.5)
        done = []
        engine.launch(KernelInstance(spec), queue, launch_overhead=0.0,
                      on_finish=lambda k: done.append(k))
        engine.run()
        assert done


class TestPriorityTiers:
    def test_high_priority_context_wins_contention(self):
        engine, registry = make_engine()
        rt = registry.create("rt", 1.0, charge_memory=False, priority=1)
        be = registry.create("be", 1.0, charge_memory=False, priority=0)
        q_rt, q_be = engine.create_queue(rt), engine.create_queue(be)
        finish = {}
        engine.launch(
            KernelInstance(compute(dur=100.0, demand=1.0)), q_rt,
            launch_overhead=0.0,
            on_finish=lambda k: finish.setdefault("rt", engine.now),
        )
        engine.launch(
            KernelInstance(compute(dur=100.0, demand=1.0)), q_be,
            launch_overhead=0.0,
            on_finish=lambda k: finish.setdefault("be", engine.now),
        )
        engine.run()
        # RT fully satisfied first; BE only gets leftovers.
        assert finish["rt"] == pytest.approx(100.0, rel=0.05)
        assert finish["be"] > finish["rt"]
