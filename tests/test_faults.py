"""Fault injection and graceful degradation (docs/robustness.md).

Covers the fault subsystem bottom-up: plan parsing and validation, the
deterministic decision oracle, engine-level retry/kill mechanics, the
harness-level shed/timeout/crash recovery paths, and the two headline
guarantees — every non-faulted request completes, and same-seed runs
are byte-identical.
"""

import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

import repro.apps.application as appmod
from repro.apps.application import Application, AppKind
from repro.baselines import (
    GSLICESystem,
    REEFPlusSystem,
    TemporalSystem,
    UnboundSystem,
    ZicoSystem,
)
from repro.core import BlessRuntime
from repro.core.config import BlessConfig
from repro.core.kernel_manager import ConcurrentKernelManager
from repro.gpusim.context import ContextRegistry
from repro.gpusim.device import GPUDevice, GPUSpec, OutOfMemoryError
from repro.gpusim.engine import SimEngine
from repro.gpusim.faults import (
    _DOMAIN_FAIL,
    _DOMAIN_SPIKE,
    FaultInjector,
    FaultPlan,
    _app_token,
    _hash_u01,
    resolve_fault_plan,
)
from repro.gpusim.kernel import KernelInstance, KernelSpec
from repro.metrics.io import result_to_dict
from repro.metrics.stats import FaultStats, ServingResult
from repro.workloads.suite import bind_load, symmetric_pair


def fresh_request_ids():
    """Same-process replays must see identical request ids."""
    appmod._request_counter = itertools.count()


def toy_app(app_id="a", n=3, dur=50.0):
    kernels = [
        KernelSpec(name=f"{app_id}-{i}", base_duration_us=dur, sm_demand=0.6,
                   mem_intensity=0.2)
        for i in range(n)
    ]
    return Application(name=app_id, kind=AppKind.INFERENCE, kernels=kernels,
                       memory_mb=10, quota=0.5, app_id=app_id)


# ----------------------------------------------------------------------
# FaultPlan parsing and validation
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_default_plan_inactive(self):
        assert not FaultPlan().active

    def test_from_spec_round_trip(self):
        plan = FaultPlan.from_spec(
            "failure=0.05,slowdown=0.1,factor=2.5,crash=3000/9000,"
            "drift=0.3,timeout=5e6,retries=4,backoff=50,backoff_mult=3,seed=7"
        )
        assert plan.kernel_failure_rate == 0.05
        assert plan.slowdown_rate == 0.1
        assert plan.slowdown_factor == 2.5
        assert plan.context_crash_times == (3000.0, 9000.0)
        assert plan.profile_drift == 0.3
        assert plan.request_timeout_us == 5e6
        assert plan.max_retries == 4
        assert plan.retry_backoff_us == 50.0
        assert plan.retry_backoff_mult == 3.0
        assert plan.seed == 7
        assert plan.active

    def test_from_spec_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown fault-plan key"):
            FaultPlan.from_spec("explode=1")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kernel_failure_rate": 1.0},
            {"kernel_failure_rate": -0.1},
            {"slowdown_factor": 0.5},
            {"max_retries": -1},
            {"retry_backoff_mult": 0.9},
            {"context_crash_times": (-1.0,)},
            {"request_timeout_us": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_resolve_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "failure=0.02,seed=3")
        monkeypatch.setenv("REPRO_FAULT_SEED", "11")
        plan = resolve_fault_plan()
        assert plan is not None
        assert plan.kernel_failure_rate == 0.02
        assert plan.seed == 11  # env seed overrides the spec's

    def test_resolve_none_without_spec(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        monkeypatch.delenv("REPRO_FAULT_SEED", raising=False)
        assert resolve_fault_plan() is None

    @pytest.mark.parametrize("plan_spec", [None, "failure=0.02"])
    def test_resolve_rejects_non_integer_env_seed(self, monkeypatch, plan_spec):
        if plan_spec is None:
            monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        else:
            monkeypatch.setenv("REPRO_FAULT_PLAN", plan_spec)
        monkeypatch.setenv("REPRO_FAULT_SEED", "abc")
        with pytest.raises(ValueError, match=r"REPRO_FAULT_SEED value 'abc'"):
            resolve_fault_plan()

    def test_plan_is_picklable(self):
        import pickle

        plan = FaultPlan(seed=5, kernel_failure_rate=0.1)
        assert pickle.loads(pickle.dumps(plan)) == plan


# ----------------------------------------------------------------------
# FaultInjector determinism
# ----------------------------------------------------------------------
class TestFaultInjector:
    def make_kernel(self, app_id="a", seq=0):
        spec = KernelSpec(name="k", base_duration_us=100.0, sm_demand=0.5)
        return KernelInstance(spec=spec, app_id=app_id, request_id=0, seq=seq)

    def test_decisions_ignore_uid(self):
        # Two injectors fed kernels with different uids but the same
        # (app, seq, occurrence) identity must decide identically.
        plan = FaultPlan(seed=3, kernel_failure_rate=0.3, slowdown_rate=0.3)
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        for seq in range(20):
            ka, kb = self.make_kernel(seq=seq), self.make_kernel(seq=seq)
            assert ka.uid != kb.uid
            assert a.should_fail(ka) == b.should_fail(kb)
            assert a.work_multiplier(ka) == b.work_multiplier(kb)

    def test_occurrence_distinguishes_instances(self):
        plan = FaultPlan(seed=3, kernel_failure_rate=0.5)
        injector = FaultInjector(plan)
        rolls = [injector.should_fail(self.make_kernel(seq=0)) for _ in range(32)]
        assert len(set(rolls)) == 2  # not all the same decision

    def test_drift_is_persistent_per_slot(self):
        plan = FaultPlan(seed=9, profile_drift=0.5)
        injector = FaultInjector(plan)
        first = injector.work_multiplier(self.make_kernel(seq=2))
        second = injector.work_multiplier(self.make_kernel(seq=2))
        assert first == second
        assert 1.0 <= first <= 1.5

    def test_backoff_grows_exponentially(self):
        plan = FaultPlan(retry_backoff_us=10.0, retry_backoff_mult=2.0)
        injector = FaultInjector(plan)
        assert injector.backoff_us(1) == 10.0
        assert injector.backoff_us(2) == 20.0
        assert injector.backoff_us(3) == 40.0

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=-(2**70), max_value=2**70),
        app_id=st.text(max_size=12),
        seq=st.integers(min_value=0, max_value=4096),
        occurrence=st.integers(min_value=0, max_value=6),
        attempt=st.integers(min_value=0, max_value=5),
    )
    def test_cached_roll_equals_reference_hash(
        self, seed, app_id, seq, occurrence, attempt
    ):
        # The roll resumes from the slot's memoised splitmix state; it
        # must equal hashing all six parts anew, cold and warm.
        plan = FaultPlan(seed=seed, kernel_failure_rate=0.5, slowdown_rate=0.5)
        injector = FaultInjector(plan)
        app = _app_token(app_id)
        for domain in (_DOMAIN_FAIL, _DOMAIN_SPIKE):
            want = _hash_u01(seed, domain, app, seq, occurrence, attempt)
            assert injector._roll(domain, app, seq, occurrence, attempt) == want
            assert injector._roll(domain, app, seq, occurrence, attempt) == want
        # And through the kernel-facing decisions: the (occurrence + 1)-th
        # instance of the slot, at this attempt.
        fresh = FaultInjector(plan)
        for _ in range(occurrence + 1):
            kernel = self.make_kernel(app_id=app_id, seq=seq)
            kernel.attempts = attempt
            failed = fresh.should_fail(kernel)
        roll = _hash_u01(seed, _DOMAIN_FAIL, app, seq, occurrence, attempt)
        assert failed == (roll < 0.5)
        spike = _hash_u01(seed, _DOMAIN_SPIKE, app, seq, occurrence, attempt)
        assert fresh.work_multiplier(kernel) == (3.0 if spike < 0.5 else 1.0)

    def test_spike_counted_in_stats(self):
        stats = FaultStats()
        plan = FaultPlan(seed=1, slowdown_rate=1.0, slowdown_factor=4.0)
        injector = FaultInjector(plan, stats=stats)
        assert injector.work_multiplier(self.make_kernel()) == 4.0
        assert stats.slowdown_spikes == 1


# ----------------------------------------------------------------------
# Engine-level retry and kill mechanics
# ----------------------------------------------------------------------
class TestEngineFaults:
    def run_engine(self, plan, n=4, callbacks=None):
        stats = FaultStats()
        injector = FaultInjector(plan, stats=stats)
        engine = SimEngine(device=GPUDevice(), fault_injector=injector)
        registry = ContextRegistry(engine.device)
        ctx = registry.create(owner="a", sm_limit=1.0)
        queue = engine.create_queue(ctx)
        done, failed = [], []
        spec = KernelSpec(name="k", base_duration_us=100.0, sm_demand=0.5)
        kernels = [
            KernelInstance(spec=spec, app_id="a", request_id=0, seq=i)
            for i in range(n)
        ]
        engine.subscribe_failure(lambda k: failed.append(k.seq))
        engine.launch_batch(
            kernels, queue,
            callbacks=[lambda k: done.append((k.seq, k.failed))] * n,
        )
        engine.run()
        return engine, done, failed

    def test_retries_preserve_completion(self):
        plan = FaultPlan(seed=2, kernel_failure_rate=0.4, max_retries=30)
        engine, done, failed = self.run_engine(plan)
        assert [seq for seq, _ in sorted(done)] == [0, 1, 2, 3]
        assert all(not f for _, f in done)
        assert failed == []
        assert engine.kernels_retried > 0

    def test_retry_exhaustion_marks_failed(self):
        plan = FaultPlan(seed=0, kernel_failure_rate=0.999, max_retries=1)
        engine, done, failed = self.run_engine(plan, n=1)
        # Callback still fires exactly once, with failed=True.
        assert done == [(0, True)]
        assert failed == [0]
        assert engine.kernels_failed == 1

    def test_retry_delays_completion(self):
        quiet = FaultPlan(seed=2)
        noisy = FaultPlan(seed=2, kernel_failure_rate=0.4, max_retries=30,
                          retry_backoff_us=100.0)
        clean_engine, _, _ = self.run_engine(quiet)
        faulty_engine, _, _ = self.run_engine(noisy)
        assert faulty_engine.now > clean_engine.now

    def test_kill_request_returns_callbacks_and_frees_queue(self):
        engine = SimEngine(device=GPUDevice())
        registry = ContextRegistry(engine.device)
        queue = engine.create_queue(registry.create(owner="a", sm_limit=1.0))
        spec = KernelSpec(name="k", base_duration_us=1000.0, sm_demand=0.5)
        kernels = [
            KernelInstance(spec=spec, app_id="a", request_id=7, seq=i)
            for i in range(3)
        ]
        fired = []
        engine.launch_batch(
            kernels, queue, callbacks=[lambda k: fired.append(k.seq)] * 3
        )
        engine.run(until=engine.now + 500.0)
        killed = engine.kill_request("a", 7)
        assert [k.seq for k, _ in killed] == [0, 1, 2]
        assert all(k.failed for k, _ in killed)
        assert all(cb is not None for _, cb in killed)
        assert fired == []  # engine never invokes them itself
        assert queue.depth == 0
        engine.run()
        assert engine.kernels_killed == 3

    def test_kill_context_marks_queue_dead(self):
        engine = SimEngine(device=GPUDevice())
        registry = ContextRegistry(engine.device)
        ctx = registry.create(owner="a", sm_limit=0.5)
        queue = engine.create_queue(ctx)
        spec = KernelSpec(name="k", base_duration_us=1000.0, sm_demand=0.5)
        engine.launch(
            KernelInstance(spec=spec, app_id="a", request_id=0, seq=0), queue
        )
        engine.run(until=engine.now + 100.0)
        killed = engine.kill_context(ctx)
        assert len(killed) == 1
        assert queue.dead
        # A launch already in flight toward the dead queue fails
        # instead of executing on a ghost context.
        late = KernelInstance(spec=spec, app_id="a", request_id=0, seq=1)
        observed = []
        engine.launch(late, queue, on_finish=lambda k: observed.append(k.failed))
        engine.run()
        assert observed == [True]

    def test_remove_queue_rejects_busy_queue(self):
        engine = SimEngine(device=GPUDevice())
        registry = ContextRegistry(engine.device)
        queue = engine.create_queue(registry.create(owner="a", sm_limit=0.5))
        spec = KernelSpec(name="k", base_duration_us=100.0, sm_demand=0.5)
        engine.launch(
            KernelInstance(spec=spec, app_id="a", request_id=0, seq=0), queue
        )
        engine.run(until=engine.now + 50.0)
        with pytest.raises(ValueError):
            engine.remove_queue(queue)


# ----------------------------------------------------------------------
# Kernel-manager robustness (context memory bound, idempotent register)
# ----------------------------------------------------------------------
class TestManagerMemoryBound:
    def make_manager(self, memory_mb):
        spec = GPUSpec(memory_mb=memory_mb)
        engine = SimEngine(device=GPUDevice(spec))
        registry = ContextRegistry(engine.device)
        manager = ConcurrentKernelManager(engine, registry, BlessConfig())
        return engine, registry, manager

    def test_lru_eviction_under_pressure(self):
        # Room for exactly two MPS contexts.
        spec = GPUSpec()
        engine, registry, manager = self.make_manager(2 * spec.mps_context_mb)
        manager.register_client("a")
        q1 = manager.restricted_queue("a", 2)
        q2 = manager.restricted_queue("a", 4)
        assert manager.context_memory_mb == 2 * spec.mps_context_mb
        # Touch q1 so q2 becomes the LRU victim.
        manager.restricted_queue("a", 2)
        q3 = manager.restricted_queue("a", 6)
        assert manager.context_evictions == 1
        assert q2.dead
        assert not q1.dead and not q3.dead
        assert q2.context not in registry.contexts
        assert manager.context_memory_mb == 2 * spec.mps_context_mb
        assert manager.peak_context_memory_mb == 2 * spec.mps_context_mb

    def test_oom_when_every_context_busy(self):
        spec = GPUSpec()
        engine, registry, manager = self.make_manager(spec.mps_context_mb)
        manager.register_client("a")
        queue = manager.restricted_queue("a", 2)
        # Park a long kernel so the cached context is not evictable.
        k = KernelInstance(
            spec=KernelSpec(name="k", base_duration_us=1e6, sm_demand=0.5),
            app_id="a", request_id=0, seq=0,
        )
        engine.launch(k, queue)
        engine.run(until=engine.now + 100.0)
        with pytest.raises(OutOfMemoryError, match="cached contexts are busy"):
            manager.restricted_queue("a", 4)

    def test_handle_context_crash_purges_cache(self):
        engine, registry, manager = self.make_manager(40_000)
        manager.register_client("a")
        queue = manager.restricted_queue("a", 2)
        ctx = queue.context
        engine.kill_context(ctx)
        registry.destroy(ctx)
        manager.handle_context_crash(ctx)
        assert manager.context_crashes == 1
        fresh = manager.restricted_queue("a", 2)
        assert fresh is not queue
        assert not fresh.dead


# ----------------------------------------------------------------------
# Harness-level degradation paths
# ----------------------------------------------------------------------
CRASH_PLAN = FaultPlan(
    seed=7,
    kernel_failure_rate=0.05,
    context_crash_times=(4_000.0,),
    max_retries=4,
)


def serve_faulted(cls, plan, requests=4, **kwargs):
    fresh_request_ids()
    system = cls(fault_plan=plan, **kwargs)
    return system.serve(bind_load(symmetric_pair("R50"), "B", requests=requests))


class TestGracefulDegradation:
    def test_bless_survives_crash_and_failures(self):
        # The acceptance scenario: one MPS-context crash plus 5%
        # transient kernel failures — every non-faulted request must
        # still complete through retry/relaunch.
        result = serve_faulted(BlessRuntime, CRASH_PLAN, requests=6)
        extras = result.extras
        arrived = extras["fault_requests_arrived"]
        shed = extras["fault_shed_requests"]
        assert len(result.records) + shed == arrived
        assert extras["fault_context_crashes"] == 1.0
        assert extras["fault_transient_retries"] > 0
        assert extras["fault_degradation_events"] > 0
        # Non-faulted means no permanent failures: with retries=4 and
        # a 5% rate, no kernel exhausts its retry budget at this seed.
        assert extras["fault_permanent_failures"] == 0.0
        assert shed == 0.0

    @pytest.mark.parametrize(
        "cls", [GSLICESystem, UnboundSystem, REEFPlusSystem, TemporalSystem]
    )
    def test_baselines_complete_under_faults(self, cls):
        result = serve_faulted(cls, CRASH_PLAN)
        extras = result.extras
        assert (
            len(result.records) + extras["fault_shed_requests"]
            == extras["fault_requests_arrived"]
        )

    def test_zico_barrier_survives_shedding(self):
        # Aggressive failures + tiny retry budget force sheds; the
        # phase barrier must not deadlock on a shed waiter.
        plan = FaultPlan(seed=5, kernel_failure_rate=0.3, max_retries=1)
        fresh_request_ids()
        from repro.workloads.suite import training_pair

        system = ZicoSystem(fault_plan=plan)
        result = system.serve(bind_load(training_pair("VGG", "R50"), "B", requests=3))
        extras = result.extras
        assert (
            len(result.records) + extras["fault_shed_requests"]
            == extras["fault_requests_arrived"]
        )

    def test_shedding_on_retry_exhaustion(self):
        plan = FaultPlan(seed=1, kernel_failure_rate=0.4, max_retries=0)
        result = serve_faulted(GSLICESystem, plan)
        extras = result.extras
        assert extras["fault_shed_failed"] > 0
        assert (
            len(result.records) + extras["fault_shed_requests"]
            == extras["fault_requests_arrived"]
        )

    def test_request_timeout_sheds(self):
        plan = FaultPlan(seed=1, request_timeout_us=10_000.0)
        result = serve_faulted(GSLICESystem, plan, requests=6)
        extras = result.extras
        assert extras["fault_shed_timeout"] > 0
        assert (
            len(result.records) + extras["fault_shed_requests"]
            == extras["fault_requests_arrived"]
        )

    def test_inactive_plan_leaves_results_untouched(self):
        fresh_request_ids()
        baseline = GSLICESystem().serve(
            bind_load(symmetric_pair("R50"), "B", requests=3)
        )
        fresh_request_ids()
        shammed = GSLICESystem(fault_plan=FaultPlan(seed=99)).serve(
            bind_load(symmetric_pair("R50"), "B", requests=3)
        )
        assert json.dumps(result_to_dict(baseline), sort_keys=True) == json.dumps(
            result_to_dict(shammed), sort_keys=True
        )
        assert "fault_shed_requests" not in shammed.extras


class TestDeterminism:
    @pytest.mark.parametrize("cls", [GSLICESystem, BlessRuntime])
    def test_same_seed_byte_identical(self, cls):
        plan = FaultPlan(
            seed=7, kernel_failure_rate=0.05, slowdown_rate=0.05,
            profile_drift=0.2, context_crash_times=(4_000.0,), max_retries=4,
        )
        dumps = []
        for _ in range(2):
            result = serve_faulted(cls, plan, requests=4)
            dumps.append(json.dumps(result_to_dict(result), sort_keys=True))
        assert dumps[0] == dumps[1]

    def test_different_seed_differs(self):
        plan = FaultPlan(seed=7, kernel_failure_rate=0.10, max_retries=4)
        a = serve_faulted(GSLICESystem, plan, requests=4)
        b = serve_faulted(GSLICESystem, plan.with_seed(8), requests=4)
        assert json.dumps(result_to_dict(a), sort_keys=True) != json.dumps(
            result_to_dict(b), sort_keys=True
        )

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        rate=st.floats(min_value=0.005, max_value=0.2),
    )
    def test_any_seeded_plan_completes_all_requests(self, seed, rate):
        # Property: with a generous retry budget and no timeout, every
        # arrived request either completes or is shed — the run always
        # terminates and the books always balance.
        plan = FaultPlan(seed=seed, kernel_failure_rate=rate, max_retries=8)
        result = serve_faulted(UnboundSystem, plan, requests=3)
        extras = result.extras
        assert (
            len(result.records) + extras["fault_shed_requests"]
            == extras["fault_requests_arrived"]
        )


# ----------------------------------------------------------------------
# Satellite: empty-sample percentile safety
# ----------------------------------------------------------------------
class TestEmptyResultSafety:
    def test_percentile_and_mean_nan_on_empty(self):
        import math

        result = ServingResult(system="X")
        assert math.isnan(result.percentile_latency(99))
        assert math.isnan(result.mean_latency())
        assert math.isnan(result.mean_of_app_means())

    def test_deviation_skips_empty_apps(self):
        from repro.metrics.deviation import latency_deviation_us
        from repro.metrics.stats import RequestRecord

        result = ServingResult(system="X")
        result.add(RequestRecord(app_id="a", request_id=0, arrival=0.0, finish=10.0))
        # App "b" shed everything: present in targets, absent in records.
        assert latency_deviation_us(result, {"a": 5.0, "b": 1.0}) == 5.0

    def test_tail_latency_collect_handles_all_shed(self):
        # Regression: np.percentile([]) raised inside the tail-latency
        # experiment when a faulted run shed every request.
        from repro.experiments.tail_latency import _collect

        fresh_request_ids()
        out = _collect(lambda: bind_load(symmetric_pair("R50"), "B", requests=2))
        assert set(out) == {"GSLICE", "UNBOUND", "BLESS"}
