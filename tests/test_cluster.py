"""Tests for the multi-GPU cluster orchestrator (§4.2.2 extension)."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.application import Application, AppKind
from repro.apps.models import MODEL_NAMES, inference_app
from repro.baselines.gslice import GSLICESystem
from repro.cluster import (
    AppArrival,
    ClusterController,
    ClusterPlacer,
    OnlineClusterController,
    PlacementError,
    PlacementPolicy,
    offered_requests,
)
from repro.gpusim.device import GPUSpec
from repro.gpusim.faults import FaultPlan
from repro.gpusim.kernel import KernelSpec
from repro.metrics.stats import RequestRecord, ServingResult
from repro.workloads.suite import bind_load

GOLDEN = Path(__file__).parent / "golden" / "cluster_smoke.json"


def fingerprint(result):
    """Everything observable about a ServingResult, fully ordered.

    ``request_id`` is excluded: it comes from a process-global counter,
    so only its relative order (already captured by record order) is
    meaningful across serial and pool-worker runs.
    """
    return (
        result.system,
        result.makespan_us,
        result.utilization,
        tuple((r.app_id, r.arrival, r.finish) for r in result.records),
        tuple(sorted(result.extras.items())),
    )


def assert_gpu_tagged_first(records, placements_by_epoch):
    """Every per-GPU record's first arg is the GPU its app served on.

    ``placements_by_epoch`` holds one ``{gpu: [app_ids]}`` per served
    epoch; a ``cluster.epoch`` record closes each epoch's streams.
    """
    epoch = 0
    checked = 0
    for record in records:
        if record.etype == "cluster.epoch":
            epoch += 1
        if record.etype.startswith("cluster."):
            continue
        placement = placements_by_epoch[epoch]
        gpu_of = {a: gpu for gpu, apps in placement.items() for a in apps}
        assert next(iter(record.args)) == "gpu"
        if record.app_id:
            assert record.args["gpu"] == gpu_of[record.app_id]
        else:
            assert record.args["gpu"] in placement
        checked += 1
    assert checked > 0


def decision_arg_orders(records):
    """``{etype: [arg names in order, ...]}`` of the cluster decisions
    the base controller records, one list per record."""
    out = {}
    for record in records:
        if record.etype in ("cluster.place", "cluster.interference", "cluster.cost"):
            out.setdefault(record.etype, []).append(list(record.args))
    return out


def app(app_id, quota, memory_mb=800, model="R50"):
    return inference_app(model).with_quota(quota, app_id=app_id)


class TestPlacer:
    def test_single_app_placed(self):
        placer = ClusterPlacer(num_gpus=2)
        slot = placer.place(app("a", 0.5))
        assert slot.quota_used == pytest.approx(0.5)

    def test_quota_overflow_spills_to_next_gpu(self):
        placer = ClusterPlacer(num_gpus=2, policy=PlacementPolicy.FIRST_FIT)
        placer.place(app("a", 0.7))
        slot = placer.place(app("b", 0.7))
        assert slot.index == 1

    def test_best_fit_packs_tightly(self):
        placer = ClusterPlacer(num_gpus=2, policy=PlacementPolicy.BEST_FIT)
        placer.place(app("a", 0.6))
        placer.place(app("b", 0.2))
        # Best fit co-locates b with a (0.4 headroom beats 1.0).
        assert placer.slots[0].quota_used == pytest.approx(0.8)
        assert placer.slots[1].quota_used == 0.0

    def test_worst_fit_balances(self):
        placer = ClusterPlacer(num_gpus=2, policy=PlacementPolicy.WORST_FIT)
        placer.place(app("a", 0.5))
        placer.place(app("b", 0.5))
        assert placer.slots[0].quota_used == pytest.approx(0.5)
        assert placer.slots[1].quota_used == pytest.approx(0.5)

    def test_memory_constraint_respected(self):
        small_gpu = GPUSpec(memory_mb=3_000)
        placer = ClusterPlacer(num_gpus=1, gpu_spec=small_gpu)
        placer.place(app("a", 0.3))  # ~800MB + contexts
        with pytest.raises(PlacementError):
            placer.place(app("b", 0.3, model="NAS"))  # 1700MB won't fit

    def test_kernel_compatibility_respected(self):
        """An app with pathologically long kernels cannot co-locate."""
        monster = Application(
            name="monster",
            kind=AppKind.INFERENCE,
            kernels=[
                KernelSpec(name=f"m{i}", base_duration_us=50_000.0, sm_demand=0.9)
                for i in range(4)
            ],
            memory_mb=500,
            quota=0.3,
            app_id="monster",
        )
        placer = ClusterPlacer(num_gpus=2, policy=PlacementPolicy.FIRST_FIT)
        placer.place(app("a", 0.3))
        slot = placer.place(monster)
        assert slot.index == 1  # spilled away from the short-kernel app

    def test_place_all_and_summary(self):
        placer = ClusterPlacer(num_gpus=2)
        placements = placer.place_all(
            [app("a", 0.6), app("b", 0.6), app("c", 0.3)]
        )
        assert sum(len(apps) for apps in placements.values()) == 3
        summary = placer.utilization_summary()
        assert "GPU0" in summary and "GPU1" in summary

    def test_no_gpu_rejected(self):
        with pytest.raises(ValueError):
            ClusterPlacer(num_gpus=0)


class TestController:
    def test_cluster_serves_all_apps(self):
        apps = [app("a", 0.6), app("b", 0.6), app("c", 0.4)]
        controller = ClusterController(num_gpus=2)
        result = controller.serve(bind_load(apps, "C", requests=3))
        assert result.merged.count() == 9
        assert len(result.per_gpu) == 2
        assert sum(len(v) for v in result.placements.values()) == 3

    def test_cluster_with_alternate_system(self):
        apps = [app("a", 0.5), app("b", 0.5)]
        controller = ClusterController(num_gpus=1, system_factory=GSLICESystem)
        result = controller.serve(bind_load(apps, "C", requests=2))
        assert result.merged.count() == 4
        assert "GSLICE" in result.merged.system

    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError):
            ClusterController(num_gpus=1).serve([])

    def test_duplicate_ids_rejected(self):
        a = app("a", 0.4)
        bindings = bind_load([a, a], "C", requests=1)
        with pytest.raises(ValueError):
            ClusterController(num_gpus=2).serve(bindings)

    def test_isolated_gpus_match_single_gpu_latency(self):
        """Two apps on two GPUs behave like two solo deployments."""
        apps = [app("a", 1.0), app("b", 1.0)]
        controller = ClusterController(
            num_gpus=2, policy=PlacementPolicy.WORST_FIT
        )
        result = controller.serve(bind_load(apps, "C", requests=3))
        solo = inference_app("R50").solo_span_us
        for app_id in ("a", "b"):
            assert result.merged.mean_latency(app_id) < 1.1 * solo

    def test_idle_gpus_count_in_utilization(self):
        """Regression: one app on a 3-GPU pool is one-third as utilised.

        The denominator used to be len(per_gpu) — occupied GPUs only —
        so a cluster with idle GPUs reported the same utilization as a
        fully-packed one.
        """
        bindings = bind_load([app("solo", 0.5)], "B", requests=4)
        pool3 = ClusterController(num_gpus=3).serve(bindings)
        pool1 = ClusterController(num_gpus=1).serve(bindings)
        assert pool1.merged.utilization > 0
        assert pool3.merged.utilization == pytest.approx(
            pool1.merged.utilization / 3
        )

    def test_merged_extras_keep_fault_accounting(self):
        """Regression: per-GPU extras used to be dropped by the merge.

        With an injected fault plan the cluster-wide books must still
        balance: completed + shed == arrived, summed over every GPU.
        """
        apps = [app("a", 0.6), app("b", 0.6), app("c", 0.4)]
        plan = FaultPlan(seed=7, kernel_failure_rate=0.05, max_retries=2)
        controller = ClusterController(
            num_gpus=2, system_kwargs={"fault_plan": plan}
        )
        result = controller.serve(bind_load(apps, "B", requests=4))
        extras = result.merged.extras
        arrived = extras["fault_requests_arrived"]
        shed = extras["fault_shed_requests"]
        assert arrived == sum(
            r.extras["fault_requests_arrived"] for r in result.per_gpu.values()
        )
        assert len(result.merged.records) + shed == arrived
        assert arrived == 12

    def test_parallel_matches_serial(self):
        apps = [app("a", 0.6), app("b", 0.6), app("c", 0.4)]
        bindings = bind_load(apps, "B", requests=3)
        serial = ClusterController(num_gpus=2).serve(bindings, jobs=1)
        parallel = ClusterController(num_gpus=2).serve(bindings, jobs=2)
        assert fingerprint(serial.merged) == fingerprint(parallel.merged)
        assert serial.placements == parallel.placements

    @settings(max_examples=4, deadline=None)
    @given(
        model=st.sampled_from(MODEL_NAMES),
        num_gpus=st.integers(min_value=1, max_value=3),
        requests=st.integers(min_value=1, max_value=2),
        quota=st.sampled_from([0.4, 0.5, 0.7]),
    )
    def test_parallel_equals_serial_property(
        self, model, num_gpus, requests, quota
    ):
        apps = [
            inference_app(model).with_quota(quota, app_id="app1"),
            inference_app("R50").with_quota(1.0 - quota, app_id="app2"),
        ]
        bindings = bind_load(apps, "B", requests=requests)
        serial = ClusterController(num_gpus=num_gpus).serve(bindings, jobs=1)
        parallel = ClusterController(num_gpus=num_gpus).serve(bindings, jobs=2)
        assert fingerprint(serial.merged) == fingerprint(parallel.merged)

    def test_tracer_collects_cluster_and_gpu_streams(self):
        apps = [app("a", 1.0), app("b", 1.0)]
        controller = ClusterController(
            num_gpus=2, policy=PlacementPolicy.WORST_FIT, trace=True
        )
        result = controller.serve(bind_load(apps, "C", requests=2))
        records = controller.tracer.records
        places = [r for r in records if r.etype == "cluster.place"]
        assert [p.app_id for p in places] == ["a", "b"]
        assert {r.args.get("gpu") for r in records if "gpu" in r.args} == {0, 1}
        # Per-GPU kernel streams were absorbed alongside the decisions.
        assert any(r.is_kernel for r in records)
        assert_gpu_tagged_first(records, [result.placements])


class TestServingResultMerge:
    def res(self, app_id, makespan, util, n=2, extras=None):
        result = ServingResult(
            system="X", makespan_us=makespan, utilization=util
        )
        for i in range(n):
            result.add(
                RequestRecord(
                    app_id=app_id, request_id=i, arrival=10.0 * i, finish=10.0 * i + 5.0
                )
            )
        result.extras.update(extras or {})
        return result

    def test_empty_merge_rejected(self):
        with pytest.raises(ValueError):
            ServingResult.merge([], num_slots=1)

    def test_extras_are_summed(self):
        a = self.res("a", 100.0, 0.5, extras={"fault_shed_requests": 1.0})
        b = self.res("b", 100.0, 0.5, extras={"fault_shed_requests": 2.0})
        merged = ServingResult.merge([a, b], num_slots=2)
        assert merged.extras["fault_shed_requests"] == 3.0

    def test_hit_rate_recomputed_not_summed(self):
        a = self.res("a", 100.0, 0.5, extras={
            "config_cache_hits": 9.0, "config_cache_misses": 1.0, "config_cache_hit_rate": 0.9})
        b = self.res("b", 100.0, 0.5, extras={
            "config_cache_hits": 0.0, "config_cache_misses": 10.0, "config_cache_hit_rate": 0.0})
        merged = ServingResult.merge([a, b], num_slots=2)
        assert merged.extras["config_cache_hit_rate"] == pytest.approx(0.45)

    def test_num_slots_counts_idle_capacity(self):
        a = self.res("a", 100.0, 1.0)
        merged = ServingResult.merge([a], num_slots=4)
        assert merged.utilization == pytest.approx(0.25)

    def test_offsets_shift_records_and_extend_makespan(self):
        a = self.res("a", 100.0, 1.0)
        b = self.res("b", 50.0, 1.0)
        merged = ServingResult.merge(
            [a, b], num_slots=1, offsets=[0.0, 100.0]
        )
        assert merged.makespan_us == pytest.approx(150.0)
        assert merged.records[-1].arrival == pytest.approx(110.0)
        assert merged.records[-1].finish == pytest.approx(115.0)
        # Busy the whole stitched window.
        assert merged.utilization == pytest.approx(1.0)

    def test_length_mismatch_rejected(self):
        a = self.res("a", 100.0, 1.0)
        with pytest.raises(ValueError):
            ServingResult.merge([a], num_slots=1, weights=[1.0, 2.0])
        with pytest.raises(ValueError):
            ServingResult.merge([a], num_slots=1, offsets=[0.0, 1.0])


class TestPlacerDeterminism:
    def test_best_fit_ties_break_by_index(self):
        placer = ClusterPlacer(num_gpus=3, policy=PlacementPolicy.BEST_FIT)
        assert placer.select(app("a", 0.5)).index == 0

    def test_worst_fit_ties_break_by_index(self):
        placer = ClusterPlacer(num_gpus=3, policy=PlacementPolicy.WORST_FIT)
        placer.place(app("a", 0.3))  # GPU0 now more loaded
        assert placer.select(app("b", 0.3)).index == 1

    def test_remove_frees_the_slot(self):
        placer = ClusterPlacer(num_gpus=2)
        placer.place(app("a", 0.6))
        slot = placer.remove("a")
        assert slot.index == 0 and slot.quota_used == 0.0
        with pytest.raises(KeyError):
            placer.remove("a")

    def test_slot_of(self):
        placer = ClusterPlacer(num_gpus=2)
        placer.place(app("a", 0.6))
        assert placer.slot_of("a").index == 0
        assert placer.slot_of("ghost") is None

    def test_migration_strictly_reduces_spread(self):
        placer = ClusterPlacer(num_gpus=2, policy=PlacementPolicy.BEST_FIT)
        placer.place(app("a", 0.5))
        placer.place(app("b", 0.3))  # best fit stacks both on GPU0
        spread_before = placer.quota_spread()
        move = placer.propose_migration()
        assert move is not None
        moved, source, target = move
        assert moved.app_id == "b" and (source.index, target.index) == (0, 1)
        placer.apply_migration(moved, source, target)
        assert placer.quota_spread() < spread_before
        # Balanced now: no further move may oscillate b back.
        assert placer.propose_migration() is None

    def test_migration_none_on_single_gpu(self):
        placer = ClusterPlacer(num_gpus=1)
        placer.place(app("a", 0.5))
        assert placer.propose_migration() is None


class TestOnlineController:
    def schedule(self, specs):
        """specs: (app_id, quota, arrive, depart) tuples -> AppArrivals."""
        arrivals = []
        for app_id, quota, arrive, depart in specs:
            binding = bind_load([app(app_id, quota)], "C", requests=2)[0]
            arrivals.append(
                AppArrival(
                    binding=binding, arrive_epoch=arrive, depart_epoch=depart
                )
            )
        return arrivals

    def test_arrivals_and_departures(self):
        controller = OnlineClusterController(num_gpus=1)
        result = controller.serve(
            self.schedule(
                [("a", 0.6, 0, 2), ("b", 0.4, 0, None), ("c", 0.5, 2, None)]
            )
        )
        stats = result.stats
        assert stats.epochs == 3
        assert stats.apps_arrived == 3 and stats.apps_admitted == 3
        assert stats.apps_departed == 1 and stats.apps_shed == 0
        # Epochs 0-1 serve {a, b}; epoch 2 serves {b, c} after a departs.
        assert set(result.placements[0][0]) == {"a", "b"}
        assert set(result.placements[1][0]) == {"a", "b"}
        assert set(result.placements[2][0]) == {"b", "c"}
        assert result.merged.extras["cluster_apps_departed"] == 1.0

    def test_full_cluster_sheds_with_request_accounting(self):
        controller = OnlineClusterController(num_gpus=1)
        sched = self.schedule([("a", 1.0, 0, None), ("b", 0.9, 0, None)])
        result = controller.serve(sched)
        assert result.shed_apps == ["b"]
        assert result.stats.requests_shed == offered_requests(sched[1].binding)
        extras = result.merged.extras
        completed = float(len(result.merged.records))
        arrived = extras.get("fault_requests_arrived", completed)
        offered = arrived + extras["cluster_requests_shed"]
        shed = (
            extras.get("fault_shed_requests", 0.0)
            + extras["cluster_requests_shed"]
        )
        assert extras["cluster_requests_shed"] > 0
        assert completed + shed == offered

    def test_degraded_admission(self):
        controller = OnlineClusterController(num_gpus=1)
        result = controller.serve(
            self.schedule([("a", 0.7, 0, None), ("b", 0.6, 0, None)])
        )
        # b does not fit at 0.6 but does at 0.6 * 0.5 = 0.3.
        assert result.stats.apps_shed == 0
        assert result.stats.apps_degraded == 1
        assert result.degraded_quotas == {"b": pytest.approx(0.3)}

    def test_epochs_chain_on_the_cluster_clock(self):
        controller = OnlineClusterController(num_gpus=1)
        result = controller.serve(
            self.schedule([("a", 0.5, 0, None), ("b", 0.5, 1, None)])
        )
        assert len(result.per_epoch) == 2
        assert result.merged.makespan_us == pytest.approx(
            sum(e.makespan_us for e in result.per_epoch)
        )
        # Epoch-1 records start after epoch 0's makespan.
        epoch0_span = result.per_epoch[0].makespan_us
        later = [r for r in result.merged.records if r.arrival >= epoch0_span]
        assert len(later) >= result.per_epoch[1].count()

    def test_online_parallel_matches_serial(self):
        sched = self.schedule(
            [("a", 1.0, 0, None), ("b", 1.0, 0, None), ("c", 0.5, 1, 2)]
        )
        serial = OnlineClusterController(num_gpus=2).serve(sched, jobs=1)
        parallel = OnlineClusterController(num_gpus=2).serve(sched, jobs=2)
        assert fingerprint(serial.merged) == fingerprint(parallel.merged)

    def test_online_trace_events(self):
        controller = OnlineClusterController(
            num_gpus=2, migrate=True, trace=True
        )
        result = controller.serve(
            self.schedule([("a", 0.6, 0, 1), ("b", 0.5, 0, None), ("c", 0.5, 1, None)])
        )
        etypes = {r.etype for r in controller.tracer.records}
        assert "cluster.place" in etypes
        assert "cluster.epoch" in etypes
        assert "cluster.depart" in etypes
        served = [placement for placement in result.placements if placement]
        assert_gpu_tagged_first(controller.tracer.records, served)

    def test_bad_schedules_rejected(self):
        sched = self.schedule([("a", 0.5, 0, None), ("a", 0.5, 1, None)])
        with pytest.raises(ValueError):
            OnlineClusterController(num_gpus=1).serve(sched)
        with pytest.raises(ValueError):
            OnlineClusterController(num_gpus=1).serve(
                self.schedule([("x", 0.5, 2, 1)])
            )


class TestClusterScaleExperiment:
    def test_matches_golden(self):
        from repro.experiments.cluster_scale import run_quick

        measured = json.loads(json.dumps(run_quick(jobs=1), sort_keys=True))
        assert measured == json.loads(GOLDEN.read_text())

    def test_parallel_matches_golden(self):
        from repro.experiments.cluster_scale import run_quick

        measured = json.loads(json.dumps(run_quick(jobs=2), sort_keys=True))
        assert measured == json.loads(GOLDEN.read_text())


class TestOnlineSLOAccounting:
    """Per-class offered-request conservation at cluster scope.

    An offered request ends in exactly one bucket: gateway-completed,
    gateway-shed (admission or fault), or ladder-shed before its app
    ever reached a gateway (``cluster_requests_shed_<class>``) —
    ``completed + shed == arrived`` must hold per SLO class, not just
    in aggregate, and the two shed paths must never double-count.
    """

    def schedule(self, specs):
        arrivals = []
        for app_id, quota, arrive, depart in specs:
            binding = bind_load([app(app_id, quota)], "C", requests=2)[0]
            arrivals.append(
                AppArrival(
                    binding=binding, arrive_epoch=arrive, depart_epoch=depart
                )
            )
        return arrivals

    def spec(self):
        from repro.gateway import SLOPolicy, SLOSpec

        return SLOSpec(
            policies={
                "a": SLOPolicy(slo_class="latency_critical"),
                "b": SLOPolicy(slo_class="best_effort"),
            }
        )

    def test_per_class_books_balance_with_ladder_shed(self):
        from repro.gateway import check_slo_accounting

        sched = self.schedule([("a", 1.0, 0, None), ("b", 0.9, 0, None)])
        controller = OnlineClusterController(
            num_gpus=1,
            system_kwargs={"slo": self.spec()},
        )
        result = controller.serve(sched)
        extras = result.merged.extras
        # b (best-effort) was refused by the ladder: its offered load is
        # accounted per class, and it never reached a gateway — the two
        # shed paths are structurally disjoint.
        lost = float(offered_requests(sched[1].binding))
        assert extras["cluster_requests_shed_best_effort"] == lost
        assert extras.get("slo_arrived_best_effort", 0.0) == 0.0
        assert extras.get("slo_shed_admission_best_effort", 0.0) == 0.0
        report = check_slo_accounting(
            extras,
            offered={
                "latency_critical": extras["slo_arrived_latency_critical"],
                "best_effort": lost,
            },
        )
        assert report["latency_critical"]["leak"] == 0.0
        assert report["best_effort"]["shed_cluster"] == lost
        assert result.stats.requests_shed_by_class == {
            "best_effort": int(lost)
        }

    def test_admitted_classes_balance_without_sheds(self):
        from repro.gateway import check_slo_accounting

        controller = OnlineClusterController(
            num_gpus=2, system_kwargs={"slo": self.spec()}
        )
        result = controller.serve(
            self.schedule([("a", 0.5, 0, None), ("b", 0.5, 0, None)])
        )
        report = check_slo_accounting(result.merged.extras)
        for cls in ("latency_critical", "best_effort"):
            assert report[cls]["arrived"] > 0
            assert report[cls]["leak"] == 0.0
            assert report[cls]["shed_cluster"] == 0.0

    def test_non_slo_runs_keep_historical_schema(self):
        sched = self.schedule([("a", 1.0, 0, None), ("b", 0.9, 0, None)])
        controller = OnlineClusterController(num_gpus=1)
        result = controller.serve(sched)
        extras = result.merged.extras
        assert extras["cluster_requests_shed"] > 0
        assert not any(
            key.startswith("cluster_requests_shed_") for key in extras
        )
        assert result.stats.requests_shed_by_class == {}


CONTENTION_GOLDEN = (
    Path(__file__).parent / "golden" / "cluster_contention_smoke.json"
)


class TestInterferenceEstimator:
    def make(self):
        from repro.cluster import InterferenceEstimator

        return InterferenceEstimator()

    def test_solo_is_no_slowdown(self):
        est = self.make()
        assert est.slowdown(inference_app("R50"), []) == pytest.approx(1.0)

    def test_co_residents_slow_each_other_down(self):
        est = self.make()
        a, b = inference_app("R50"), inference_app("NAS")
        assert est.slowdown(a, [b]) > 1.0
        assert est.slowdown(b, [a]) > 1.0

    def test_matrix_is_asymmetric_light_suffers_more(self):
        est = self.make()
        light = inference_app("R50").with_quota(0.5, app_id="light")
        heavy = inference_app("NAS").with_quota(0.5, app_id="heavy")
        matrix = est.matrix([light, heavy])
        assert matrix[("light", "heavy")] > matrix[("heavy", "light")]

    def test_memoized_on_profile_signature(self):
        est = self.make()
        a = inference_app("R50").with_quota(0.3, app_id="a")
        b = inference_app("R50").with_quota(0.7, app_id="b")
        first = est.joint_us([a, inference_app("VGG")])
        misses = est.misses
        # Same models, different app_id/quota: signature cache hit.
        second = est.joint_us([b, inference_app("VGG")])
        assert second == first
        assert est.misses == misses
        assert est.hits >= 1

    def test_same_name_other_trace_not_shared(self):
        from .app_variants import other_trace

        est = self.make()
        plain = inference_app("R50")
        copy = other_trace(inference_app("R50"))
        assert est.profile_signature(plain) != est.profile_signature(copy)
        assert est.solo_us(plain) != est.solo_us(copy)


class TestJointCacheSoundness:
    """``InterferenceEstimator._joint_cache`` changes no number: an
    estimator warmed in another order, and the placements it drives,
    equal cold ones."""

    def test_warm_and_cold_estimators_agree_on_the_churn(self, monkeypatch):
        from itertools import combinations_with_replacement

        from repro.cluster import interference
        from repro.experiments.cluster_scale import churn_schedule

        arrivals = churn_schedule(8, requests=2)
        one_per_model = {}
        for arrival in arrivals:
            one_per_model.setdefault(arrival.binding.app.name, arrival.binding.app)
        groups = [
            list(group)
            for size in (1, 2, 3)
            for group in combinations_with_replacement(one_per_model.values(), size)
        ]
        warm = interference.InterferenceEstimator()
        for group in reversed(groups):
            warm.joint_us(group)
        for group in groups:
            assert warm.joint_us(group) == interference.InterferenceEstimator().joint_us(
                group
            )

        def serve(estimator_factory):
            monkeypatch.setattr(interference, "InterferenceEstimator", estimator_factory)
            return OnlineClusterController(
                num_gpus=8, policy=PlacementPolicy.CONTENTION_AWARE, migrate=True
            ).serve(arrivals, jobs=1)

        cold = serve(interference.InterferenceEstimator)
        hits = warm.hits
        warmed = serve(lambda: warm)
        assert warm.hits > hits
        assert warmed.placements == cold.placements
        assert (
            warmed.merged.extras["cluster_placement_cost"]
            == cold.merged.extras["cluster_placement_cost"]
        )
        assert fingerprint(warmed.merged) == fingerprint(cold.merged)


class TestPlacementCostModel:
    def make(self):
        from repro.cluster import PlacementCostModel

        return PlacementCostModel()

    def test_empty_and_singleton_slots_are_free(self):
        model = self.make()
        assert model.slot_cost([]) == 0.0
        assert model.slot_cost([inference_app("R50")]) == 0.0

    def test_pair_cost_is_positive_excess_time(self):
        model = self.make()
        a, b = inference_app("R50"), inference_app("NAS")
        cost = model.slot_cost([a, b])
        joint = model.estimator.joint_us([a, b])
        expected = (joint - model.estimator.solo_us(a)) + (
            joint - model.estimator.solo_us(b)
        )
        assert cost == pytest.approx(expected)
        assert cost > 0.0

    def test_assignment_cost_sums_over_slots(self):
        model = self.make()
        g1 = [inference_app("R50"), inference_app("VGG")]
        g2 = [inference_app("NAS"), inference_app("BERT")]
        assert model.assignment_cost([g1, g2]) == pytest.approx(
            model.slot_cost(g1) + model.slot_cost(g2)
        )

    def test_slo_class_weights_scale_the_objective(self):
        from repro.cluster import PlacementCostModel

        class StubSLO:
            def slo_class(self, app_id):
                return (
                    "latency_critical" if app_id.startswith("lc") else "best_effort"
                )

        a = inference_app("R50").with_quota(0.5, app_id="lc-a")
        b = inference_app("NAS").with_quota(0.5, app_id="be-b")
        flat = PlacementCostModel()
        weighted = PlacementCostModel(slo=StubSLO())
        assert weighted.weight(a) == 4.0 and weighted.weight(b) == 1.0
        assert weighted.slot_cost([a, b]) > flat.slot_cost([a, b])


_MODELS = st.sampled_from(["R50", "VGG", "BERT", "R101", "NAS"])

# Quota splits that fill one GPU exactly.
_FULL_GPU = [(0.5, 0.5), (0.6, 0.4), (0.5, 0.3, 0.2), (0.4, 0.4, 0.2),
             (0.4, 0.3, 0.3), (0.6, 0.2, 0.2)]


def _batch_of(quotas):
    """Batches of ``quotas`` in any order, each app a drawn model."""
    return st.permutations(quotas).flatmap(
        lambda order: st.tuples(*(st.tuples(_MODELS, st.just(q)) for q in order))
    ).map(list)


# (batch, GPUs): batches that pack only exactly onto their GPUs,
# shuffled — the shape on which greedy constructions strand an app —
# and mixed-quota batches on one to three GPUs.
_exact_cases = (
    st.lists(st.sampled_from(_FULL_GPU), min_size=1, max_size=3)
    .filter(lambda splits: sum(map(len, splits)) <= 8)
    .flatmap(
        lambda splits: st.tuples(
            _batch_of([quota for split in splits for quota in split]),
            st.just(len(splits)),
        )
    )
)
_mixed_cases = st.tuples(
    st.lists(
        st.tuples(_MODELS, st.sampled_from([0.2, 0.25, 0.3, 0.4, 0.5, 0.6])),
        min_size=2,
        max_size=8,
    ),
    st.integers(min_value=1, max_value=3),
)


class TestContentionPlacement:
    def apps(self, specs):
        return [
            inference_app(model).with_quota(quota, app_id=f"{model}#{i}")
            for i, (model, quota) in enumerate(specs)
        ]

    def test_select_spreads_to_empty_gpus_first(self):
        placer = ClusterPlacer(
            num_gpus=2, policy=PlacementPolicy.CONTENTION_AWARE
        )
        placer.place(app("a", 0.3))
        assert placer.select(app("b", 0.3)).index == 1

    def test_select_prefers_least_interfering_slot(self):
        placer = ClusterPlacer(
            num_gpus=2, policy=PlacementPolicy.CONTENTION_AWARE
        )
        heavy = inference_app("NAS").with_quota(0.5, app_id="heavy")
        light = inference_app("R50").with_quota(0.5, app_id="light")
        placer.place(heavy)
        placer.place(light)
        # The arriving R50 pairs with the other R50, not the NAS.
        assert placer.select(
            inference_app("R50").with_quota(0.5, app_id="new")
        ).index == 1

    def test_place_all_never_costlier_than_best_fit(self):
        specs = [
            ("NAS", 0.5), ("R101", 0.5), ("R50", 0.5), ("VGG", 0.5),
            ("BERT", 0.5), ("R50", 0.5),
        ]
        contention = ClusterPlacer(
            num_gpus=3, policy=PlacementPolicy.CONTENTION_AWARE
        )
        contention.place_all(self.apps(specs))
        best = ClusterPlacer(num_gpus=3, policy=PlacementPolicy.BEST_FIT)
        best.place_all(self.apps(specs))
        best_cost = contention.cost_model.assignment_cost(
            [slot.apps for slot in best.slots]
        )
        assert contention.placement_cost() <= best_cost + 1e-6

    @settings(max_examples=20, deadline=None)
    @given(
        models=st.lists(
            st.sampled_from(["R50", "VGG", "BERT", "R101", "NAS"]),
            min_size=2,
            max_size=6,
        ),
        num_gpus=st.integers(min_value=2, max_value=3),
    )
    def test_property_cost_never_worse_than_best_fit(self, models, num_gpus):
        from hypothesis import assume

        specs = [(model, 0.5) for model in models]
        best = ClusterPlacer(num_gpus=num_gpus, policy=PlacementPolicy.BEST_FIT)
        try:
            best.place_all(self.apps(specs))
        except PlacementError:
            assume(False)
        contention = ClusterPlacer(
            num_gpus=num_gpus, policy=PlacementPolicy.CONTENTION_AWARE
        )
        contention.place_all(self.apps(specs))
        best_cost = contention.cost_model.assignment_cost(
            [slot.apps for slot in best.slots]
        )
        assert contention.placement_cost() <= best_cost + 1e-6

    @settings(max_examples=25, deadline=None)
    @given(
        models=st.lists(
            st.sampled_from(["R50", "VGG", "BERT", "R101", "NAS"]),
            min_size=2,
            max_size=6,
        ),
        num_gpus=st.integers(min_value=2, max_value=3),
    )
    def test_solver_matches_exhaustive_optimum(self, models, num_gpus):
        from hypothesis import assume

        from repro.cluster.interference import solve_placement

        from .placement_oracle import exhaustive_placement

        apps = self.apps([(model, 0.5) for model in models])
        placer = ClusterPlacer(
            num_gpus=num_gpus, policy=PlacementPolicy.CONTENTION_AWARE
        )
        oracle = exhaustive_placement(
            apps, num_gpus, placer.cost_model, placer._feasible
        )
        assume(oracle is not None)
        groups = solve_placement(
            apps, num_gpus, placer.cost_model, placer._feasible
        )
        assert groups is not None
        cost = placer.cost_model.assignment_cost(groups)
        assert cost == pytest.approx(oracle[0], abs=1e-6)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        batch=st.lists(
            st.tuples(
                st.sampled_from(["R50", "VGG", "BERT", "R101", "NAS"]),
                st.sampled_from([0.2, 0.25, 0.3, 0.4, 0.5, 0.6]),
            ),
            min_size=2,
            max_size=6,
        ),
        num_gpus=st.integers(min_value=2, max_value=3),
    )
    def test_solver_gap_to_exhaustive_optimum_is_bounded(self, batch, num_gpus):
        # With mixed quotas, local search can stop in a local optimum.
        # Two targeted hypothesis searches of 3,000 batches each found
        # worst gaps of 33.3% and 35.7% of the optimum; this pins 36%.
        from hypothesis import assume

        from repro.cluster.interference import solve_placement

        from .placement_oracle import exhaustive_placement

        apps = self.apps(batch)
        placer = ClusterPlacer(
            num_gpus=num_gpus, policy=PlacementPolicy.CONTENTION_AWARE
        )
        oracle = exhaustive_placement(
            apps, num_gpus, placer.cost_model, placer._feasible
        )
        groups = solve_placement(
            apps, num_gpus, placer.cost_model, placer._feasible
        )
        assume(oracle is not None and groups is not None)
        cost = placer.cost_model.assignment_cost(groups)
        assert cost <= oracle[0] * 1.36 + 1e-6

    def test_exactly_packing_batch_is_placed(self):
        # Both greedy constructions strand the last app of this batch:
        # it packs only as {0.5, 0.3, 0.2} + {0.4, 0.3, 0.3}.
        from .placement_oracle import exhaustive_placement

        specs = [
            ("R101", 0.5), ("R101", 0.4), ("R50", 0.3), ("BERT", 0.3),
            ("NAS", 0.3), ("R101", 0.2),
        ]
        placer = ClusterPlacer(
            num_gpus=2, policy=PlacementPolicy.CONTENTION_AWARE
        )
        placement = placer.place_all(self.apps(specs))
        assert sorted(
            sorted(app.quota for app in group) for group in placement.values()
        ) == [[0.2, 0.3, 0.5], [0.3, 0.3, 0.4]]
        oracle = exhaustive_placement(
            self.apps(specs), 2, placer.cost_model, placer._feasible
        )
        assert placer.placement_cost() == pytest.approx(oracle[0], abs=1e-6)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(case=st.one_of(_exact_cases, _mixed_cases))
    def test_solver_places_exactly_when_oracle_can(self, case):
        batch, num_gpus = case
        from repro.cluster.interference import solve_placement

        from .placement_oracle import exhaustive_placement

        apps = self.apps(batch)
        placer = ClusterPlacer(
            num_gpus=num_gpus, policy=PlacementPolicy.CONTENTION_AWARE
        )
        oracle = exhaustive_placement(
            apps, num_gpus, placer.cost_model, placer._feasible
        )
        groups = solve_placement(
            apps, num_gpus, placer.cost_model, placer._feasible
        )
        assert (groups is None) == (oracle is None)
        if groups is not None:
            assert sorted(app.app_id for group in groups for app in group) == sorted(
                app.app_id for app in apps
            )

    def test_infeasible_batch_raises_and_records_nothing(self):
        placer = ClusterPlacer(
            num_gpus=1, policy=PlacementPolicy.CONTENTION_AWARE
        )
        with pytest.raises(PlacementError):
            placer.place_all(self.apps([("R50", 0.8), ("VGG", 0.8)]))
        assert all(not slot.apps for slot in placer.slots)

    def test_quota_policy_has_no_cost_model(self):
        placer = ClusterPlacer(num_gpus=2, policy=PlacementPolicy.BEST_FIT)
        assert placer.cost_model is None
        assert placer.placement_cost() is None


class TestContentionMigration:
    def test_none_on_single_slot_cluster(self):
        placer = ClusterPlacer(
            num_gpus=1, policy=PlacementPolicy.CONTENTION_AWARE
        )
        placer.place(inference_app("R50").with_quota(0.4, app_id="a"))
        placer.place(inference_app("NAS").with_quota(0.4, app_id="b"))
        assert placer.propose_migration() is None

    def test_none_when_no_strictly_improving_move(self):
        placer = ClusterPlacer(
            num_gpus=2, policy=PlacementPolicy.CONTENTION_AWARE
        )
        # One app per GPU: every slot is already interference-free.
        placer.place(inference_app("NAS").with_quota(0.5, app_id="a"))
        placer.place(inference_app("R101").with_quota(0.5, app_id="b"))
        assert placer.propose_migration() is None

    def test_cost_reducing_move_found_and_applied(self):
        placer = ClusterPlacer(
            num_gpus=2, policy=PlacementPolicy.CONTENTION_AWARE
        )
        a = inference_app("NAS").with_quota(0.3, app_id="a")
        b = inference_app("R101").with_quota(0.3, app_id="b")
        # Stack both on GPU0 manually; GPU1 idle.
        placer.slots[0].apps.extend([a, b])
        before = placer.placement_cost()
        move = placer.propose_migration()
        assert move is not None
        moved, source, target = move
        assert (source.index, target.index) == (0, 1)
        placer.apply_migration(moved, source, target)
        assert placer.placement_cost() < before
        assert placer.propose_migration() is None

    def test_tie_breaks_deterministic_on_app_id_then_target(self):
        placer = ClusterPlacer(
            num_gpus=3, policy=PlacementPolicy.CONTENTION_AWARE
        )
        # Two identical apps stacked on GPU0, GPUs 1-2 idle: moving
        # either to either idle GPU gains the same -> app_id "a",
        # target index 1 must win.
        placer.slots[0].apps.extend(
            [
                inference_app("R50").with_quota(0.3, app_id="b"),
                inference_app("R50").with_quota(0.3, app_id="a"),
            ]
        )
        moved, source, target = placer.propose_migration()
        assert moved.app_id == "a"
        assert (source.index, target.index) == (0, 1)


class TestAdmissionMemoization:
    def test_decisions_byte_identical_with_direct_check(self):
        from repro.cluster import admission_accepts
        from repro.core.deployment import check_admission

        spec = GPUSpec()
        groups = [
            [app("a", 0.5), app("b", 0.5)],
            [app("a", 0.5), app("b", 0.5)],  # repeat: cached stats
            [app("c", 0.2, model="NAS"), app("d", 0.8)],
            [app("e", 0.4, memory_mb=40000)],
            [app("f", 0.3), app("g", 0.3), app("h", 0.3)],
        ]
        for group in groups:
            assert admission_accepts(group, spec) == (
                check_admission(list(group), gpu_spec=spec).accepted
            )

    def test_slot_fits_uses_memoized_path(self):
        placer = ClusterPlacer(num_gpus=1)
        placed, candidate = app("a", 0.4), app("b", 0.4)
        placer.place(placed)
        assert placer.slots[0].fits(candidate)
        # Each app's kernel-duration stats are cached for its own trace.
        for member in (placed, candidate):
            kernels, _ = member.__dict__["_compute_duration_stats"]
            assert kernels is member.kernels


class TestContentionEvents:
    def test_static_controller_emits_interference_and_cost(self):
        controller = ClusterController(
            num_gpus=2,
            policy=PlacementPolicy.CONTENTION_AWARE,
            trace=True,
        )
        controller.serve(
            bind_load(
                [app("a", 0.5), app("b", 0.5, model="NAS")], "C", requests=2
            )
        )
        etypes = [r.etype for r in controller.tracer.records]
        assert "cluster.interference" in etypes
        assert "cluster.cost" in etypes
        cost_events = [
            r for r in controller.tracer.records if r.etype == "cluster.cost"
        ]
        assert cost_events[0].args["policy"] == "contention_aware"
        assert "estimator_hits" in cost_events[0].args
        # Argument order is part of the output (save_jsonl bytes and
        # the observability docs' event table).
        assert decision_arg_orders(controller.tracer.records) == {
            "cluster.place": [["gpu", "quota", "policy"]] * 2,
            "cluster.interference": [["gpu", "slowdown", "slot_cost"]] * 2,
            "cluster.cost": [
                ["cost", "policy", "estimator_hits", "estimator_misses"]
            ],
        }

    def test_online_controller_emits_cost_per_epoch(self):
        binding_a = bind_load([app("a", 0.5)], "C", requests=2)[0]
        binding_b = bind_load([app("b", 0.5, model="NAS")], "C", requests=2)[0]
        controller = OnlineClusterController(
            num_gpus=2,
            policy=PlacementPolicy.CONTENTION_AWARE,
            trace=True,
        )
        result = controller.serve(
            [
                AppArrival(binding=binding_a, arrive_epoch=0),
                AppArrival(binding=binding_b, arrive_epoch=1),
            ]
        )
        etypes = [r.etype for r in controller.tracer.records]
        assert etypes.count("cluster.cost") == 2  # one per epoch
        assert "cluster.interference" in etypes
        assert "cluster_placement_cost" in result.merged.extras
        assert decision_arg_orders(controller.tracer.records) == {
            "cluster.place": [["gpu", "quota", "degraded", "policy"]] * 2,
            "cluster.interference": [["gpu", "slowdown", "slot_cost"]] * 2,
            "cluster.cost": [
                ["epoch", "cost", "policy", "estimator_hits", "estimator_misses"]
            ]
            * 2,
        }

    def test_quota_policies_keep_extras_schema(self):
        controller = ClusterController(num_gpus=2)
        result = controller.serve(
            bind_load([app("a", 0.5), app("b", 0.5)], "C", requests=2)
        )
        assert "cluster_placement_cost" not in result.merged.extras


class TestClusterContentionExperiment:
    def test_matches_golden(self):
        from repro.experiments.cluster_scale import run_churn_quick

        measured = json.loads(json.dumps(run_churn_quick(jobs=1), sort_keys=True))
        assert measured == json.loads(CONTENTION_GOLDEN.read_text())

    def test_parallel_matches_golden(self):
        from repro.experiments.cluster_scale import run_churn_quick

        measured = json.loads(json.dumps(run_churn_quick(jobs=2), sort_keys=True))
        assert measured == json.loads(CONTENTION_GOLDEN.read_text())

    def test_contention_beats_quota_policies(self):
        """The PR's acceptance claim, pinned on the golden output."""
        data = json.loads(CONTENTION_GOLDEN.read_text())
        contention = data["gpus=8 policy=contention_aware churn"]
        for baseline in ("best_fit", "worst_fit"):
            other = data[f"gpus=8 policy={baseline} churn"]
            assert contention["throughput_qps"] > other["throughput_qps"]
            assert contention["p99_latency_us"] < other["p99_latency_us"]
        assert contention["placement_cost"] > 0.0
