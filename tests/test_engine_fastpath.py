"""The engine's event loop and rate path against their references.

Covers: the engine against the naive oracle stepper (tests/
engine_oracle.py), batched kernel launch,
gap wake-ups as pseudo-events, lazy-cancel heap compaction, the bounded
timeline ring buffer, the surfaced engine counters, the rate kernel
against the reference allocation pipeline, and ``validate=True`` on the
shipped path.
"""

import itertools
import json
import math
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

import repro.apps.application as appmod
import repro.gpusim.engine as engine_mod
import repro.gpusim.hwsched as hwsched_mod
import repro.gpusim.interference as interference_mod
from repro.baselines import GSLICESystem, REEFPlusSystem
from repro.catalog.ingest import result_metrics
from repro.core import BlessRuntime
from repro.gpusim.context import ContextRegistry
from repro.gpusim.device import GPUDevice, GPUSpec
from repro.gpusim.engine import SimEngine
from repro.gpusim.faults import FaultInjector, FaultPlan
from repro.gpusim.hwsched import SATISFIED_EPS
from repro.gpusim.kernel import KernelInstance, KernelSpec
from repro.metrics.stats import ServingResult
from repro.scenarios import components
from repro.workloads.suite import bind_load, multi_app_mix, symmetric_pair

from .engine_oracle import OracleEngine


def make_engine(engine_cls=SimEngine, **kwargs):
    engine = engine_cls(device=GPUDevice(GPUSpec()), **kwargs)
    registry = ContextRegistry(engine.device)
    return engine, registry


def compute(name="k", dur=100.0, demand=0.8, mem=0.0, gap=0.0):
    return KernelSpec(
        name=name, base_duration_us=dur, sm_demand=demand,
        mem_intensity=mem, dispatch_gap_us=gap,
    )


def run_mixed_workload(engine_cls):
    """Three contexts, mixed demands/gaps; returns (finish order, times)."""
    engine, registry = make_engine(engine_cls)
    queues = [
        engine.create_queue(registry.create(f"app{i}", 0.4, charge_memory=False))
        for i in range(3)
    ]
    finished = []
    for qi, queue in enumerate(queues):
        kernels = [
            KernelInstance(
                compute(
                    name=f"q{qi}k{ki}",
                    dur=20.0 + 7.0 * ki + 3.0 * qi,
                    demand=0.3 + 0.1 * ki,
                    mem=0.2 * qi,
                    gap=2.0 if ki % 2 else 0.0,
                )
            )
            for ki in range(5)
        ]
        callbacks = [
            (lambda k: finished.append((k.name, engine.now))) for _ in kernels
        ]
        engine.launch_batch(kernels, queue, callbacks=callbacks)
    engine.run()
    return finished, engine.now


class TestEngineModes:
    def test_unknown_ctor_mode_rejected(self):
        # One event loop: there is no engine mode to select.
        with pytest.raises(TypeError):
            make_engine(mode="scalar")

    def test_modes_bit_identical(self):
        assert run_mixed_workload(SimEngine) == run_mixed_workload(OracleEngine)


def run_faulty_switching_workload(
    engine_cls, kernel_params, failure_rate, fault_seed, switch_at, second_wave,
):
    """Random workload with a fault plan and a mid-run squad switch.

    Two contexts run the generated kernels; a scheduled action at
    ``switch_at`` tears the first context down (the squad-switch
    analogue of a REEF-style preemption) and launches a second wave on
    the survivor — scheduled, like the harness's squad switches, so the
    whole history is one deterministic event sequence.  Returns every
    observable the engine and the oracle must agree on byte for byte.
    """
    plan = FaultPlan(
        seed=fault_seed, kernel_failure_rate=failure_rate, max_retries=2
    )
    engine = engine_cls(
        device=GPUDevice(GPUSpec()),
        fault_injector=FaultInjector(plan),
    )
    registry = ContextRegistry(engine.device)
    contexts = [
        registry.create(f"app{i}", 0.5, charge_memory=False) for i in range(2)
    ]
    queues = [engine.create_queue(ctx) for ctx in contexts]
    finished = []
    for qi, queue in enumerate(queues):
        kernels = [
            KernelInstance(
                compute(
                    name=f"q{qi}k{ki}",
                    dur=dur,
                    demand=demand,
                    mem=mem,
                    gap=gap,
                ),
                app_id=f"app{qi}",
                request_id=qi,
                seq=ki,
            )
            for ki, (dur, demand, mem, gap) in enumerate(kernel_params)
        ]
        engine.launch_batch(
            kernels,
            queue,
            callbacks=[
                (lambda k: finished.append((k.name, k.failed, engine.now)))
                for _ in kernels
            ],
        )
    killed = []

    def squad_switch():
        killed.extend(k.name for k, _ in engine.kill_context(contexts[0]))
        for ki, (dur, demand, mem, gap) in enumerate(second_wave):
            engine.launch(
                KernelInstance(
                    compute(
                        name=f"w2k{ki}", dur=dur, demand=demand, mem=mem, gap=gap
                    ),
                    app_id="app1",
                    request_id=2,
                    seq=ki,
                ),
                queues[1],
                on_finish=lambda k: finished.append((k.name, k.failed, engine.now)),
            )

    engine.schedule(switch_at, squad_switch)
    engine.run()
    return (
        finished,
        killed,
        engine.now,
        engine.kernels_completed,
        engine.kernels_failed,
        engine.kernels_retried,
        engine.kernels_killed,
    )


kernel_param = st.tuples(
    st.floats(min_value=1.0, max_value=200.0, allow_nan=False),  # duration
    st.floats(min_value=0.05, max_value=1.0, allow_nan=False),  # sm demand
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),  # mem intensity
    st.sampled_from([0.0, 1.5, 4.0]),  # dispatch gap
)


class TestEpochBatchingProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        kernel_params=st.lists(kernel_param, min_size=1, max_size=5),
        failure_rate=st.sampled_from([0.0, 0.2, 0.6]),
        fault_seed=st.integers(min_value=0, max_value=2**31),
        switch_at=st.floats(min_value=0.0, max_value=400.0, allow_nan=False),
        second_wave=st.lists(kernel_param, min_size=0, max_size=3),
    )
    def test_engine_equals_oracle(
        self, kernel_params, failure_rate, fault_seed, switch_at, second_wave,
    ):
        """The epoch loop is byte-identical to the naive oracle across
        random fault plans and squad switches."""
        args = (kernel_params, failure_rate, fault_seed, switch_at, second_wave)
        assert run_faulty_switching_workload(
            SimEngine, *args
        ) == run_faulty_switching_workload(OracleEngine, *args)


class TestLaunchBatch:
    def test_batch_equivalent_to_single_launches(self):
        specs = [compute(name=f"k{i}", dur=10.0 + i) for i in range(4)]

        engine_a, registry_a = make_engine()
        queue_a = engine_a.create_queue(
            registry_a.create("a", 1.0, charge_memory=False)
        )
        order_a = []
        for spec in specs:
            engine_a.launch(
                KernelInstance(spec), queue_a,
                on_finish=lambda k: order_a.append((k.name, engine_a.now)),
            )
        engine_a.run()

        engine_b, registry_b = make_engine()
        queue_b = engine_b.create_queue(
            registry_b.create("a", 1.0, charge_memory=False)
        )
        order_b = []
        engine_b.launch_batch(
            [KernelInstance(spec) for spec in specs],
            queue_b,
            callbacks=[
                (lambda k: order_b.append((k.name, engine_b.now)))
                for _ in specs
            ],
        )
        engine_b.run()

        assert order_b == order_a
        assert engine_b.now == engine_a.now
        # One visibility event instead of one per kernel.
        assert engine_b.counters["events_processed"] < engine_a.counters[
            "events_processed"
        ]

    def test_empty_batch_is_noop(self):
        engine, registry = make_engine()
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        engine.launch_batch([], queue)
        assert engine.heap_size == 0
        engine.run()
        assert engine.now == 0.0

    def test_partial_callbacks(self):
        engine, registry = make_engine()
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        hits = []
        kernels = [KernelInstance(compute(name=f"k{i}", dur=5.0)) for i in range(3)]
        engine.launch_batch(
            kernels, queue, callbacks=[None, None, lambda k: hits.append(k.name)]
        )
        engine.run()
        assert hits == ["k2"]


class TestBatchedGapWakes:
    """Gap wake-ups stay out of the heap entirely."""

    def test_gap_wake_is_a_pseudo_event(self):
        engine, registry = make_engine()
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        engine._ensure_gap_wake(queue, 100.0)
        assert engine.heap_size == 0
        assert len(engine._gap_wakes) == 1
        engine.run()
        assert engine.now == pytest.approx(100.0)
        assert engine._gap_wakes == {}

    def test_supersede_replaces_in_place(self):
        engine, registry = make_engine()
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        deadline = 100_000.0
        for step in range(500):
            engine._ensure_gap_wake(queue, deadline - step)
        # One dict slot per queue, no stale entries anywhere.
        assert engine.heap_size == 0
        assert len(engine._gap_wakes) == 1
        assert engine.counters["gap_events_superseded"] == 499
        engine.run()
        assert engine.now == pytest.approx(deadline - 499)

    def test_earlier_pending_wake_is_reused(self):
        engine, registry = make_engine()
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        engine._ensure_gap_wake(queue, 50.0)
        engine._ensure_gap_wake(queue, 100.0)
        assert len(engine._gap_wakes) == 1
        assert engine.counters["gap_events_superseded"] == 0
        assert engine._gap_min_time == pytest.approx(50.0)


    @pytest.mark.parametrize("engine_cls", [SimEngine, OracleEngine])
    def test_wake_dispatches_queues_left_dirty(self, engine_cls):
        # Withdrawing a pending kernel marks its queue dirty without a
        # dispatch pass; the next gap wake of another queue must take the
        # full pass and start the newly ready head there, at t=15, not
        # at that queue's own stale wake (t=31).
        engine, registry = make_engine(engine_cls)
        queue_a = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        queue_b = engine.create_queue(registry.create("b", 1.0, charge_memory=False))
        a1 = KernelInstance(compute("a1", dur=10.0, demand=0.3), app_id="a")
        a2 = KernelInstance(compute("a2", dur=10.0, demand=0.3, gap=5.0), app_id="a")
        b1 = KernelInstance(compute("b1", dur=1.0, demand=0.3), app_id="b", request_id=1)
        b2 = KernelInstance(
            compute("b2", dur=1.0, demand=0.3, gap=30.0), app_id="b", request_id=1
        )
        b3 = KernelInstance(
            compute("b3", dur=1.0, demand=0.3, gap=2.0), app_id="b", request_id=2
        )
        engine.launch_batch([a1, a2], queue_a, launch_overhead=0.0)
        engine.launch_batch([b1, b2, b3], queue_b, launch_overhead=0.0)
        engine.schedule(12.0, lambda: engine.preempt_pending("b", 1))
        engine.run()
        assert a2.start_time == pytest.approx(15.0)
        assert b3.start_time == pytest.approx(15.0)
        assert b2.start_time is None


class TestHeapCompaction:
    def test_compaction_sweeps_cancelled_events(self):
        engine, _ = make_engine()
        events = [engine.schedule(float(i + 1), lambda: None) for i in range(200)]
        for event in events[:150]:
            engine.cancel(event)
        assert engine.counters["heap_compactions"] >= 1
        assert engine.heap_size < 200
        assert engine.counters["peak_heap_size"] == 200

    def test_below_threshold_keeps_lazy_entries(self):
        engine, _ = make_engine()
        events = [engine.schedule(float(i + 1), lambda: None) for i in range(40)]
        for event in events[:20]:
            engine.cancel(event)
        assert engine.counters["heap_compactions"] == 0
        assert engine.heap_size == 40

    def test_cancelled_events_do_not_fire(self):
        engine, _ = make_engine()
        fired = []
        keep = engine.schedule(10.0, lambda: fired.append("keep"))
        drop = engine.schedule(5.0, lambda: fired.append("drop"))
        engine.cancel(drop)
        engine.run()
        assert fired == ["keep"]
        assert keep is not None


class TestTimelineRingBuffer:
    def test_disabled_timeline_stays_empty(self):
        engine, registry = make_engine(record_timeline=False)
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        engine.launch_batch(
            [KernelInstance(compute(dur=5.0)) for _ in range(10)], queue
        )
        engine.run()
        assert list(engine.timeline) == []

    def test_capacity_bounds_recorded_segments(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "TIMELINE_CAPACITY", 8)
        engine, registry = make_engine(record_timeline=True)
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        for _ in range(30):
            engine.launch(KernelInstance(compute(dur=5.0, gap=1.0)), queue)
        engine.run()
        assert 0 < len(engine.timeline) <= 8


class TestCountersSurfaced:
    def test_serving_result_carries_engine_counters(self):
        from repro.baselines.gslice import GSLICESystem
        from repro.apps.models import inference_app
        from repro.workloads.suite import bind_load

        apps = [
            inference_app("R50").with_quota(0.5, app_id="app1"),
            inference_app("VGG").with_quota(0.5, app_id="app2"),
        ]
        result = GSLICESystem().serve(bind_load(apps, "A", requests=2))
        for key in (
            "engine_events_processed",
            "engine_rebalances",
            "engine_rebalances_skipped",
            "engine_epoch_batches",
            "engine_epoch_kernels_advanced",
            "engine_epoch_max_batch",
            "engine_heap_compactions",
            "engine_peak_heap_size",
            "engine_gap_events_superseded",
        ):
            assert key in result.extras, key
        assert result.extras["engine_events_processed"] > 0
        assert result.extras["engine_rebalances"] > 0

    def test_mig_sums_engine_counters_across_slices(self):
        from repro.baselines.mig_system import MIGSystem
        from repro.apps.models import inference_app
        from repro.workloads.suite import bind_load

        apps = [
            inference_app("R50").with_quota(0.5, app_id="app1"),
            inference_app("VGG").with_quota(0.5, app_id="app2"),
        ]
        result = MIGSystem().serve(bind_load(apps, "A", requests=2))
        assert result.extras["engine_events_processed"] > 0


# ----------------------------------------------------------------------
# The rate kernel against the reference pipeline
# ----------------------------------------------------------------------
def kernel_rates(specs, limits, priorities):
    """The engine's rate kernel over one running set, plus the reference
    pipeline (``hwsched.allocate`` → ``interference.slowdowns`` →
    ``KernelSpec.rate_at``).

    Kernel ``i`` runs alone in a context of SM limit ``limits[i]`` and
    priority ``priorities[i]``, as the engine's one queue per context
    guarantees.
    """
    engine, registry = make_engine()
    for index, (spec, limit, priority) in enumerate(zip(specs, limits, priorities)):
        context = registry.create(
            f"app{index}", limit, priority=priority, charge_memory=False
        )
        kernel = KernelInstance(spec)
        engine._add_running(kernel, context)
        kernel.queue = SimpleNamespace(context=context)
    return engine._compute_rates(engine._running_rows), engine._reference_rates()[0]


rate_spec = st.builds(
    lambda demand, mem, serial, base: KernelSpec(
        name="k", base_duration_us=base, sm_demand=demand,
        mem_intensity=mem, serial_fraction=serial,
    ),
    demand=st.one_of(
        st.sampled_from([0.1, 0.25, 0.3, 0.5, 1.0]),
        st.floats(min_value=0.01, max_value=1.0),
    ),
    mem=st.floats(min_value=0.0, max_value=1.0),
    serial=st.floats(min_value=0.0, max_value=0.9),
    base=st.floats(min_value=1.0, max_value=1000.0),
)
sm_limit = st.one_of(
    st.just(1.0),
    st.sampled_from([0.2, 0.25, 0.4, 0.5, 0.75]),
    st.floats(min_value=0.05, max_value=1.0),
)


@st.composite
def running_sets(draw):
    """One context per kernel, with drawn limits and priorities."""
    n = draw(st.integers(min_value=1, max_value=12))
    limits = draw(st.lists(sm_limit, min_size=n, max_size=n))
    if draw(st.booleans()):
        priorities = [0] * n
    else:
        priorities = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    specs = draw(st.lists(rate_spec, min_size=n, max_size=n))
    return specs, limits, priorities


@st.composite
def fit_bound_sets(draw):
    """One kernel per context, one level, wants (here the demands)
    summing left to right to exactly 1.0, to just above it, or to
    within three ulps of the rate kernel's fit bound on either side of
    it."""
    n = draw(st.integers(min_value=2, max_value=8))
    target = draw(st.sampled_from([1.0, 1.0 + 1e-12, engine_mod._FIT_TOTAL]))
    goal = target
    if target == engine_mod._FIT_TOTAL:
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            goal = math.nextafter(goal, draw(st.sampled_from([0.0, 2.0])))
    weights = draw(
        st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=n, max_size=n)
    )
    scale = sum(weights)
    demands = [target * w / scale for w in weights[:-1]]
    head = 0.0
    for demand in demands:
        head += demand
    last = goal - head
    for _ in range(8):  # nudge the last want until the sum lands on goal
        total = head + last
        if total == goal:
            break
        last = math.nextafter(last, 2.0 if total < goal else 0.0)
    assume(head + last == goal and 0.0 < last <= 1.0)
    demands.append(last)
    specs = [
        KernelSpec(name=f"k{i}", base_duration_us=draw(st.floats(1.0, 1000.0)),
                   sm_demand=demand, mem_intensity=draw(st.floats(0.0, 1.0)),
                   serial_fraction=draw(st.floats(0.0, 0.9)))
        for i, demand in enumerate(demands)
    ]
    return specs, [1.0] * n, [0] * n


def own_contexts(demands, limit=1.0, mem=0.4):
    specs = [
        KernelSpec(name=f"k{i}", base_duration_us=100.0 + i, sm_demand=d,
                   mem_intensity=mem, serial_fraction=0.1)
        for i, d in enumerate(demands)
    ]
    n = len(specs)
    return specs, [limit] * n, [0] * n


BAR_3 = 1.0 / 3 + SATISFIED_EPS


class TestRateKernel:
    @settings(max_examples=300, deadline=None)
    @given(running=running_sets())
    def test_kernel_equals_reference_pipeline(self, running):
        got, want = kernel_rates(*running)
        assert got == want

    @settings(max_examples=300, deadline=None)
    @given(running=fit_bound_sets())
    def test_kernel_equals_reference_at_the_fit_bound(self, running):
        # Both sides of the bound: granted whole by the fit, or priced
        # by the water-fill rounds, the rates must match the reference.
        got, want = kernel_rates(*running)
        assert got == want

    @pytest.mark.parametrize(
        "demands",
        [
            # A want exactly at the first round's bar, and just above it.
            [BAR_3, 0.6, 0.7],
            [math.nextafter(BAR_3, 2.0), 0.6, 0.7],
            [0.2, BAR_3, 0.9],
            # Wants summing to exactly 1.0.
            [0.5, 0.5],
            [0.25, 0.25, 0.5],
            [0.125] * 8,
            [0.1, 0.2, 0.3, 0.4],
            # Seven- and eight-kernel sets, one kernel per context.
            [0.3, 0.1, 0.5, 0.2, 0.9, 0.05, 0.4],
            [0.6] * 7,
            [0.15, 0.15, 0.15, 0.15, 0.15, 0.15, 0.15, 0.8],
            [1.0] * 8,
        ],
    )
    @pytest.mark.parametrize("limit", [1.0, 0.5])
    def test_fixed_shapes(self, demands, limit):
        got, want = kernel_rates(*own_contexts(demands, limit=limit))
        assert got == want

    def test_reference_adds_left_to_right(self, monkeypatch):
        # From Python 3.12 the builtin sum() of floats is compensated:
        # 0.1 + 0.2 + 0.3 totals 0.6 there, 0.6000000000000001 left to
        # right.  Give the reference modules that sum() on any version;
        # four kernels water-filled over the GPU (0.1 and 0.2 granted
        # whole, 0.3 in the second round, 0.9 the rest), with
        # intensities 0.1/0.2/0.3/0.1 whose pressures fall below the
        # clamp at 1.0, must still match the kernel bit for bit.
        def compensated_sum(values, start=0):
            total, compensation = float(start), 0.0
            for value in values:
                step = total + value
                if abs(total) >= abs(value):
                    compensation += (total - step) + value
                else:
                    compensation += (value - step) + total
                total = step
            return total + compensation

        intensities = [0.1, 0.2, 0.3, 0.1]
        assert compensated_sum([0.1, 0.2, 0.3]) != (0.1 + 0.2) + 0.3
        assert compensated_sum(intensities) != ((0.1 + 0.2) + 0.3) + 0.1
        monkeypatch.setattr(hwsched_mod, "sum", compensated_sum, raising=False)
        monkeypatch.setattr(interference_mod, "sum", compensated_sum, raising=False)
        specs = [
            KernelSpec(name=f"k{i}", base_duration_us=100.0, sm_demand=d,
                       mem_intensity=m, serial_fraction=0.1)
            for i, (d, m) in enumerate(zip([0.1, 0.2, 0.3, 0.9], intensities))
        ]
        got, want = kernel_rates(specs, [1.0] * 4, [0] * 4)
        assert got == want


# ----------------------------------------------------------------------
# validate=True checks the loop that ships
# ----------------------------------------------------------------------
def mix_metrics(system):
    appmod._request_counter = itertools.count()
    return result_metrics(
        system.serve(bind_load(multi_app_mix(4), "A", requests=3))
    )


def validate_every_engine(monkeypatch):
    """Build every ``SimEngine`` with ``validate=True``; returns the
    (rate-kernel shape counts, validated rebalances) the run then
    fills."""
    engine_init = SimEngine.__init__

    def validating_init(self, *args, **kwargs):
        kwargs["validate"] = True
        engine_init(self, *args, **kwargs)

    shapes = Counter()
    compute_rates = SimEngine._compute_rates

    def classified(self, rows):
        shapes[rate_shape(rows)] += 1
        return compute_rates(self, rows)

    checks = []
    validate_rates = SimEngine._validate_rates

    def counted(self, applied):
        checks.append(applied)
        validate_rates(self, applied)

    monkeypatch.setattr(SimEngine, "__init__", validating_init)
    monkeypatch.setattr(SimEngine, "_compute_rates", classified)
    monkeypatch.setattr(SimEngine, "_validate_rates", counted)
    return shapes, checks


def replay_cluster_smoke():
    from repro.experiments.cluster_scale import run_quick

    return run_quick(jobs=1)


def replay_cluster_contention_smoke():
    from repro.experiments.cluster_scale import run_churn_quick

    return run_churn_quick(jobs=1)


def replay_resilience_smoke():
    from repro.experiments.resilience import run_quick

    return run_quick(jobs=1)


def replay_slo_smoke():
    from repro.experiments.slo_attainment import run_quick

    return run_quick(jobs=1)


def replay_scenario_smoke():
    from repro.scenarios import list_zoo, load_zoo, run_scenario

    return {name: run_scenario(load_zoo(name), jobs=1) for name in list_zoo()}


GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_REPLAYS = {
    "cluster_smoke": replay_cluster_smoke,
    "cluster_contention_smoke": replay_cluster_contention_smoke,
    "resilience_smoke": replay_resilience_smoke,
    "slo_smoke": replay_slo_smoke,
    "scenario_smoke": replay_scenario_smoke,
}
GOLDEN_FIG13 = GOLDEN_DIR / "fig13_inference_small.json"


class TestValidateOnShippedPath:
    @pytest.mark.parametrize(
        "make_system", [BlessRuntime, GSLICESystem, REEFPlusSystem]
    )
    def test_validate_changes_nothing(self, make_system):
        # validate checks the same loop instead of switching to another
        # one, so even the engine_* counters match.
        plain = mix_metrics(make_system())
        checked = mix_metrics(make_system(validate=True))
        assert checked == plain
        assert plain["engine_rebalances"] > 0

    def test_validate_catches_a_wrong_rate(self, monkeypatch):
        # One rate one ulp off, from the kernel that ships: invariants
        # alone would let it through, the reference comparison must not.
        compute_rates = SimEngine._compute_rates

        def one_ulp_off(self, rows):
            fractions, rates, busy = compute_rates(self, rows)
            if rates:
                rates = (math.nextafter(rates[0], math.inf),) + rates[1:]
            return fractions, rates, busy

        monkeypatch.setattr(SimEngine, "_compute_rates", one_ulp_off)
        mix_metrics(GSLICESystem())  # unchecked, the wrong rate runs
        with pytest.raises(AssertionError, match="reference pipeline"):
            mix_metrics(GSLICESystem(validate=True))

    @staticmethod
    def planted_backwards_step(validate):
        """Three kernels; the last is launched by a callback that first
        steps the clock from t=100 back to t=50, after the short kernel's
        completion (t=83) rebalanced the long one."""
        engine, registry = make_engine(validate=validate)
        queue, other, fresh = (
            engine.create_queue(registry.create(name, 0.3, charge_memory=False))
            for name in ("a", "b", "c")
        )
        engine.launch(KernelInstance(compute(name="short", dur=80.0, demand=0.3)), queue)
        engine.launch(KernelInstance(compute(name="long", dur=300.0, demand=0.3)), other)

        def step_back_and_launch():
            engine.now -= 50.0
            engine.launch(KernelInstance(compute(name="late", dur=10.0)), fresh)

        engine.schedule(100.0, step_back_and_launch)
        engine.run()
        return engine

    def test_validate_catches_a_backwards_clock(self):
        engine = self.planted_backwards_step(validate=False)  # unchecked, it runs
        assert engine.kernels_completed == 3
        with pytest.raises(AssertionError, match="clock moved backwards"):
            self.planted_backwards_step(validate=True)

    def test_fig13_golden_replays_with_every_engine_validated(self, monkeypatch):
        # Every engine built during the replay, the ISO partitions' and
        # the profiler's included, checks each rebalance against the
        # reference pipeline; the golden must come back byte for byte,
        # with each shape of the rate kernel exercised.
        from repro.experiments.fig13_overall import run_inference

        shapes, checks = validate_every_engine(monkeypatch)
        data = run_inference(requests=3, loads=("A",), jobs=1)
        assert json.dumps(data, sort_keys=True, indent=1) == GOLDEN_FIG13.read_text()
        assert {"fit", "water-fill", "levels"} <= set(shapes), shapes
        assert len(checks) > sum(shapes.values())

    @pytest.mark.parametrize("golden", sorted(GOLDEN_REPLAYS))
    def test_golden_replays_with_every_engine_validated(self, monkeypatch, golden):
        # The other goldens, served in-process (jobs=1) so every engine
        # is patched: each rebalance of each cell, cluster GPU-epoch
        # and zoo scenario checks the shipped rate kernel against the
        # reference pipeline bit for bit.
        shapes, checks = validate_every_engine(monkeypatch)
        measured = json.loads(json.dumps(GOLDEN_REPLAYS[golden](), sort_keys=True))
        assert measured == json.loads((GOLDEN_DIR / f"{golden}.json").read_text())
        assert len(checks) > sum(shapes.values()) > 0


def rate_shape(rows):
    """Which path of the rate kernel prices this running set: the fit
    (one level, every want granted whole), the water-fill of one level,
    or of several levels (REEF+)."""
    if len({row[0] for row in rows}) > 1:
        return "levels"
    wants = [row[2] for row in rows]
    total = 0.0
    for want in wants:
        total += want
    if total <= engine_mod._FIT_TOTAL or max(wants) <= 1.0 / len(wants) + SATISFIED_EPS:
        return "fit"
    return "water-fill"


# ----------------------------------------------------------------------
# validate=True balances the serve's books
# ----------------------------------------------------------------------
class TestValidatedBooks:
    def serve(self, make_system):
        # An open-loop flash crowd through the SLO gateway with failing
        # kernels: requests complete, are shed at the gate and are shed
        # by the fault path.
        apps = symmetric_pair("R50")
        bindings = components.bind_flash_crowd(
            apps, mean_interval_factor=1.5, duration_intervals=6.0,
            spike_magnitude=8.0, seed=1,
        )
        system = make_system(
            slo=components.slo_alternating(apps, 8.0, preempt=False),
            fault_plan=FaultPlan(seed=1, kernel_failure_rate=0.02, max_retries=1),
            validate=True,
        )
        return system.serve(bindings)

    @pytest.mark.parametrize("make_system", [GSLICESystem, BlessRuntime])
    def test_books_balance_with_every_kind_of_shed(self, make_system):
        extras = self.serve(make_system).extras
        assert extras["fault_shed_requests"] > 0
        assert (
            extras["slo_shed_admission_latency_critical"]
            + extras["slo_shed_admission_best_effort"]
        ) > 0

    def test_a_dropped_record_fails_the_check(self, monkeypatch):
        add = ServingResult.add
        dropped = []

        def drop_first(self, record):
            if not dropped:
                dropped.append(record)
                return
            add(self, record)

        monkeypatch.setattr(ServingResult, "add", drop_first)
        with pytest.raises(AssertionError, match="arrived"):
            self.serve(GSLICESystem)
        assert dropped

