"""Both cluster controllers serve each distinct GPU workload once per serve.

A GPU's pass depends only on its system and on what its serve reads of
its tenants in slot order (GPUs do not interfere, §4.2.2), so
``ClusterController`` reuses the result of the first GPU or epoch that
ran a workload, relabelled to each other GPU's app ids.  These tests pin
what is reused, what is served again, what the key holds and where app
ids enter it, that the trace still shows every epoch's kernels, and that
reuse gives the same numbers as one fresh serve per GPU.  They also pin
that one controller can serve twice.
"""

import dataclasses
import functools
import random

import pytest

from repro.apps.models import inference_app
from repro.catalog.ingest import result_metrics
from repro.core.runtime import BlessRuntime
from repro.cluster import (
    AppArrival,
    ClusterController,
    OnlineClusterController,
    PlacementPolicy,
    serve_gpus,
)
from repro.cluster import controller as cluster_controller
from repro.experiments.cluster_scale import churn_schedule, cluster_apps
from repro.gpusim.faults import FaultPlan
from repro.scenarios.components import slo_alternating
from repro.metrics.stats import RequestRecord, ServingResult
from repro.obs.analysis import request_critical_paths
from repro.workloads.suite import WorkloadBinding, bind_continuous, bind_load

POLICIES = ("best_fit", "worst_fit", "contention_aware")


def fingerprint(result):
    """Everything observable about a ServingResult except request ids
    (a process-global counter), fully ordered."""
    return (
        result.system,
        result.makespan_us,
        result.utilization,
        tuple((r.app_id, r.arrival, r.finish) for r in result.records),
        tuple(sorted(result.extras.items())),
    )


def schedule(specs):
    """specs: (app_id, quota, arrive, depart) tuples -> AppArrivals."""
    return [
        AppArrival(
            binding=bind_load(
                [inference_app("R50").with_quota(quota, app_id=app_id)],
                "C",
                requests=2,
            )[0],
            arrive_epoch=arrive,
            depart_epoch=depart,
        )
        for app_id, quota, arrive, depart in specs
    ]


@pytest.fixture
def served_lists(monkeypatch):
    """Per ``serve_gpus`` call, the ``{gpu: [app_ids]}`` it simulated."""
    calls = []
    real = cluster_controller.serve_gpus

    def recording(gpu_bindings, *args, **kwargs):
        calls.append(
            {
                index: [binding.app.app_id for binding in bindings]
                for index, bindings in gpu_bindings
            }
        )
        return real(gpu_bindings, *args, **kwargs)

    monkeypatch.setattr(cluster_controller, "serve_gpus", recording)
    return calls


def workload_key(**controller_kwargs):
    """A fresh controller's workload key, as its next serve computes it."""
    controller = ClusterController(num_gpus=1, **controller_kwargs)
    controller._begin_serve()
    return controller._workload_key


def churn(seed):
    """``churn_schedule(8)`` with each arrival wave shuffled by ``seed``."""
    arrivals = churn_schedule(8, requests=2)
    if seed == 0:
        return arrivals
    rng = random.Random(seed)
    waves = [arrivals[:8], arrivals[8:16], arrivals[16:]]
    for wave in waves:
        rng.shuffle(wave)
    return [arrival for wave in waves for arrival in wave]


class TestWhatIsReused:
    def test_unchanged_gpu_serves_once(self, served_lists):
        result = OnlineClusterController(num_gpus=1).serve(
            schedule([("a", 0.5, 0, None), ("b", 0.4, 0, None)]), epochs=2
        )
        assert served_lists == [{0: ["a", "b"]}]
        assert len(result.per_epoch) == 2
        assert fingerprint(result.per_epoch[1]) == fingerprint(result.per_epoch[0])
        # Both epochs' requests are in the merged result, on the cluster clock.
        offset = result.per_epoch[0].makespan_us
        count = result.per_epoch[0].count()
        assert len(result.merged.records) == 2 * count
        assert [r.arrival - offset for r in result.merged.records[count:]] == (
            pytest.approx([r.arrival for r in result.per_epoch[0].records])
        )

    def test_only_the_changed_gpu_serves_again(self, served_lists):
        # GPU 0 keeps {a, b}; GPU 1's list grows by an arrival.
        OnlineClusterController(num_gpus=2).serve(
            schedule(
                [("a", 0.5, 0, None), ("b", 0.5, 0, None),
                 ("c", 0.6, 0, None), ("d", 0.3, 1, None)]
            )
        )
        assert served_lists == [{0: ["a", "b"], 1: ["c"]}, {1: ["c", "d"]}]

    def test_departure_serves_again(self, served_lists):
        OnlineClusterController(num_gpus=1).serve(
            schedule([("a", 0.5, 0, 1), ("b", 0.4, 0, None)]), epochs=2
        )
        assert served_lists == [{0: ["a", "b"]}, {0: ["b"]}]

    def test_migration_serves_the_new_lists_once(self, served_lists):
        # Best fit packs a and b onto GPU 0; the epoch-1 rebalance moves
        # one of them to the idle GPU 1, changing both lists.  a and b
        # are the same model, quota and arrivals, so the two one-tenant
        # GPUs are one workload: epoch 1 simulates it once and hands the
        # other GPU a relabelled copy.
        result = OnlineClusterController(num_gpus=2, migrate=True).serve(
            schedule([("a", 0.4, 0, None), ("b", 0.4, 0, None)]), epochs=2
        )
        assert result.stats.migrations == 1
        assert served_lists[0] == {0: ["a", "b"]}
        assert sorted(result.placements[1]) == [0, 1]
        assert len(served_lists[1]) == 1
        [(index, app_ids)] = served_lists[1].items()
        assert result.placements[1][index] == app_ids
        per_app = result.per_epoch[1].per_app_mean_latency()
        assert sorted(per_app) == ["a", "b"]
        assert per_app["a"] == per_app["b"]

    def test_key_tells_a_degraded_quota_and_an_order_apart(self):
        a = inference_app("R50").with_quota(0.5, app_id="a")
        b = inference_app("VGG").with_quota(0.4, app_id="b")
        factory_a, factory_b = (
            binding.process_factory for binding in bind_load([a, b], "C", requests=2)
        )
        ab = [WorkloadBinding(a, factory_a), WorkloadBinding(b, factory_b)]
        ba = [ab[1], ab[0]]
        degraded = [WorkloadBinding(a.with_quota(0.25), factory_a), ab[1]]
        key = workload_key()
        rebuilt = [WorkloadBinding(b.app, b.process_factory) for b in ab]
        assert key(rebuilt) == key(ab)
        assert key(ba) != key(ab)
        assert key(degraded) != key(ab)

    def test_key_matches_content_not_ids(self):
        a = inference_app("R50").with_quota(0.5, app_id="a")
        (binding,) = bind_load([a], "C", requests=2)
        factory = binding.process_factory
        renamed = WorkloadBinding(a.with_quota(0.5, app_id="z"), factory)
        same_factory = WorkloadBinding(
            a, functools.partial(factory.func, *factory.args, **factory.keywords)
        )
        other_seed = WorkloadBinding(
            a, functools.partial(factory.func, **{**factory.keywords, "seed": 9})
        )
        key = workload_key()
        assert key([renamed]) == key([binding]) == key([same_factory])
        assert key([other_seed]) != key([binding])
        # Where a serve reads ids, ids are part of the workload.
        for ids_read in (
            {"trace": True},
            {"system_kwargs": {"fault_plan": FaultPlan.from_spec("failure=0.05")}},
            {"system_kwargs": {"slo": slo_alternating([a])}},
        ):
            traced = workload_key(**ids_read)
            assert traced([renamed]) != traced([binding])
        # An inactive plan reads nothing.
        quiet = workload_key(system_kwargs={"fault_plan": FaultPlan()})
        assert quiet([renamed]) == quiet([binding])

    def test_pool_threshold_counts_served_gpus(self, monkeypatch):
        # Four occupied GPUs with four distinct workloads, of which only
        # the one x joins changes at epoch 1: that epoch serves one GPU,
        # below the pool threshold.  Four replicas of one workload are
        # one GPU to serve, so they stay in-process too.
        backends = []
        real = cluster_controller.serve_gpus

        def recording(gpu_bindings, *args, backend=None, **kwargs):
            backends.append((len(gpu_bindings), backend))
            return real(gpu_bindings, *args, backend=backend, **kwargs)

        monkeypatch.setattr(cluster_controller, "serve_gpus", recording)
        quotas = (0.6, 0.62, 0.64, 0.66)
        OnlineClusterController(num_gpus=4).serve(
            schedule(
                [(f"a{i}", quota, 0, None) for i, quota in enumerate(quotas)]
                + [("x", 0.3, 1, None)]
            ),
            jobs=2,
        )
        assert len(backends) == 2
        assert backends[1] == (1, "inproc")
        assert backends[0][0] == 4 and backends[0][1] != "inproc"
        backends.clear()
        OnlineClusterController(num_gpus=4).serve(
            schedule([(f"a{i}", 0.6, 0, None) for i in range(4)]), jobs=2
        )
        assert backends == [(1, "inproc")]


class TestTracedReuse:
    def test_reused_kernels_appear_in_every_epoch(self):
        controller = OnlineClusterController(num_gpus=1, trace=True)
        result = controller.serve(
            schedule([("a", 0.5, 0, None), ("b", 0.4, 0, None)]), epochs=3
        )
        by_epoch = [[]]
        for record in controller.tracer.records:
            if record.etype == "cluster.epoch":
                by_epoch.append([])
            elif record.is_kernel:
                by_epoch[-1].append(record)
        kernels = by_epoch[:3]
        assert kernels[0] and by_epoch[3] == []
        offsets = [0.0]
        for epoch_result in result.per_epoch[:-1]:
            offsets.append(offsets[-1] + epoch_result.makespan_us)

        def local(record, offset):
            """(identity, local times, request id) of a kernel record."""
            args = record.args
            identity = (record.app_id, args["gpu"], args["name"], args["seq"])
            times = [record.ts_us - offset] + [
                args[key] - offset for key in ("enqueue_us", "start_us", "finish_us")
            ]
            return identity, times, args["request_id"]

        first = [local(r, 0.0) for r in kernels[0]]
        first_ids = {request_id for _, _, request_id in first}
        seen_ids = set(first_ids)
        for epoch in (1, 2):
            shifted = [local(r, offsets[epoch]) for r in kernels[epoch]]
            assert [s[0] for s in shifted] == [f[0] for f in first]
            for (_, times, _), (_, first_times, _) in zip(shifted, first):
                assert times == pytest.approx(first_times)
            # A reused pass enters the trace with fresh request ids.
            ids = {request_id for _, _, request_id in shifted}
            assert len(ids) == len(first_ids)
            assert ids.isdisjoint(seen_ids)
            seen_ids |= ids
        # Every served request is its own request on the trace.
        paths = request_critical_paths(controller.tracer.records)
        assert len(paths) == len(result.merged.records)


    def test_exported_trace_equals_a_run_without_reuse(self, monkeypatch, tmp_path):
        def traced_run(path):
            controller = OnlineClusterController(num_gpus=8, migrate=True, trace=True)
            result = controller.serve(churn_schedule(8, requests=2), jobs=1)
            controller.tracer.save_records_jsonl(path)
            return result

        reused = traced_run(tmp_path / "reused.jsonl")
        # A key that never repeats turns reuse off: every GPU-epoch serves.
        monkeypatch.setattr(
            ClusterController, "_workload_key", lambda self, bindings: object()
        )
        fresh = traced_run(tmp_path / "fresh.jsonl")
        assert fingerprint(reused.merged) == fingerprint(fresh.merged)
        assert (tmp_path / "reused.jsonl").read_bytes() == (
            tmp_path / "fresh.jsonl"
        ).read_bytes()


def fresh_per_gpu(placement, bindings_by_id, system_kwargs=None):
    """One fresh serve per occupied GPU of ``placement`` (``{gpu: ids}``)."""
    gpu_bindings = [
        (index, [bindings_by_id[app_id] for app_id in app_ids])
        for index, app_ids in sorted(placement.items())
    ]
    per_gpu, _ = serve_gpus(gpu_bindings, BlessRuntime, system_kwargs, jobs=1)
    return per_gpu


def fresh_epochs(result, arrivals, num_gpus, system_kwargs=None):
    """Each epoch of an online ``result`` served afresh, GPU by GPU."""
    deployed = {}
    for arrival in arrivals:
        app = arrival.binding.app
        quota = result.degraded_quotas.get(arrival.app_id)
        if quota is not None:
            app = app.with_quota(quota)
        deployed[arrival.app_id] = WorkloadBinding(app, arrival.binding.process_factory)
    oracle = []
    for placement in result.placements:
        per_gpu = fresh_per_gpu(placement, deployed, system_kwargs)
        oracle.append(
            ServingResult.merge(
                [per_gpu[index] for index in sorted(per_gpu)],
                system=result.merged.system,
                num_slots=num_gpus,
            )
        )
    return oracle


class TestReuseMatchesFreshServes:
    """Reused and relabelled passes equal one fresh serve per GPU."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_results_equal_a_fresh_serve_per_epoch(self, policy, seed):
        arrivals = churn(seed)
        result = OnlineClusterController(
            num_gpus=8, policy=PlacementPolicy(policy), migrate=True
        ).serve(arrivals, jobs=1)
        oracle = fresh_epochs(result, arrivals, 8)
        assert [fingerprint(r) for r in result.per_epoch] == [
            fingerprint(r) for r in oracle
        ]
        offsets = [0.0]
        for epoch_result in oracle[:-1]:
            offsets.append(offsets[-1] + epoch_result.makespan_us)
        merged = ServingResult.merge(
            oracle,
            system=result.merged.system,
            num_slots=8,
            weights=[8.0] * len(oracle),
            offsets=offsets,
        )
        # The controller's own books (admission, shedding, placement
        # cost) are not serving output; carry them over as they are.
        merged.extras.update(
            {k: v for k, v in result.merged.extras.items() if k.startswith("cluster_")}
        )
        assert result_metrics(result.merged) == result_metrics(merged)

    @pytest.mark.parametrize("reads", ["fault_plan", "fault_env", "slo", "trace"])
    def test_where_the_serve_reads_ids(self, reads, monkeypatch, served_lists):
        # Without ids in the key, the churn's epoch 0 holds replica GPUs.
        # Each of these makes the per-GPU serve read app ids, so there
        # replicas must not share a pass.
        arrivals = churn(0)
        OnlineClusterController(num_gpus=8, migrate=True).serve(arrivals, jobs=1)
        assert len(served_lists[0]) < 8
        served_lists.clear()
        system_kwargs, trace = {}, None
        if reads == "fault_plan":
            system_kwargs["fault_plan"] = FaultPlan.from_spec("failure=0.05,seed=3")
        elif reads == "fault_env":
            monkeypatch.setenv("REPRO_FAULT_PLAN", "failure=0.05,seed=3")
        elif reads == "slo":
            apps = [arrival.binding.app for arrival in arrivals]
            system_kwargs["slo"] = slo_alternating(apps, preempt=False)
        else:
            trace = True
        result = OnlineClusterController(
            num_gpus=8, migrate=True, system_kwargs=system_kwargs, trace=trace
        ).serve(arrivals, jobs=1)
        assert served_lists[0] == result.placements[0]
        oracle = fresh_epochs(result, arrivals, 8, system_kwargs)
        assert [fingerprint(r) for r in result.per_epoch] == [
            fingerprint(r) for r in oracle
        ]

    @pytest.mark.parametrize("load", ["continuous", "A"])
    @pytest.mark.parametrize("policy, gpus", [("worst_fit", 4), ("contention_aware", 2)])
    def test_static_replicas_equal_fresh_serves(self, load, policy, gpus, served_lists):
        # Two copies of the Fig. 15 mix.  Back-to-back arrivals make the
        # copies replicas; load A seeds each app's think time apart, so
        # its copies differ only in their factories' keywords.
        apps = cluster_apps(2)
        if load == "continuous":
            bindings = bind_continuous(apps, requests=2)
        else:
            bindings = bind_load(apps, load, requests=2)
        result = ClusterController(num_gpus=gpus, policy=PlacementPolicy(policy)).serve(
            bindings, jobs=1
        )
        simulated = sum(len(call) for call in served_lists)
        if load == "continuous":
            assert simulated < len(result.placements)
        else:
            assert simulated == len(result.placements)
        oracle = fresh_per_gpu(
            result.placements, {b.app.app_id: b for b in bindings}
        )
        assert sorted(result.per_gpu) == sorted(oracle)
        for index, gpu_result in result.per_gpu.items():
            assert fingerprint(gpu_result) == fingerprint(oracle[index])

    def test_gpus_apart_only_in_quota_serve_apart(self, served_lists):
        # Best fit seats GPU 0 = [R50@0.6, VGG@0.3] and GPU 1 =
        # [R50@0.5, VGG@0.4]: the same models and arrivals, other quotas.
        def app(model, quota, app_id):
            return inference_app(model).with_quota(quota, app_id=app_id)

        apps = [app("R50", 0.6, "a"), app("R50", 0.5, "b"),
                app("VGG", 0.3, "c"), app("VGG", 0.4, "d")]
        arrivals = [AppArrival(binding) for binding in bind_continuous(apps, requests=2)]
        result = OnlineClusterController(num_gpus=2).serve(arrivals, jobs=1)
        assert result.placements == [{0: ["a", "c"], 1: ["b", "d"]}]
        assert served_lists == result.placements
        oracle = fresh_epochs(result, arrivals, 2)
        assert fingerprint(result.per_epoch[0]) == fingerprint(oracle[0])


class TestServeTwice:
    def test_online_second_serve_equals_a_fresh_controller(self):
        arrivals = churn_schedule(8, requests=2)
        controller = OnlineClusterController(num_gpus=8, migrate=True)
        first = controller.serve(arrivals, jobs=1)
        first_seen = (fingerprint(first.merged), first.stats.as_dict(), first.placements)
        second = controller.serve(arrivals, jobs=1)
        fresh = OnlineClusterController(num_gpus=8, migrate=True).serve(arrivals, jobs=1)
        assert fingerprint(second.merged) == fingerprint(fresh.merged)
        assert second.stats.as_dict() == fresh.stats.as_dict()
        assert second.placements == fresh.placements
        assert second.stats is not first.stats
        assert (
            fingerprint(first.merged), first.stats.as_dict(), first.placements
        ) == first_seen

    def test_static_second_serve_equals_a_fresh_controller(self):
        bindings = bind_load(
            [inference_app("R50").with_quota(0.5, app_id=f"a{i}") for i in range(4)],
            "C",
            requests=2,
        )
        controller = ClusterController(num_gpus=2)
        first = controller.serve(bindings, jobs=1)
        second = controller.serve(bindings, jobs=1)
        fresh = ClusterController(num_gpus=2).serve(bindings, jobs=1)
        assert fingerprint(second.merged) == fingerprint(fresh.merged)
        assert second.placements == fresh.placements == first.placements


def test_request_records_are_frozen():
    record = RequestRecord(app_id="a", request_id=0, arrival=0.0, finish=1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.finish = 2.0
