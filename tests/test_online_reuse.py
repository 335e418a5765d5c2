"""The online controller serves each distinct GPU workload once per run.

A GPU's pass depends only on its system and its ordered tenants (GPUs
do not interfere, §4.2.2), so ``OnlineClusterController.serve`` reuses
the result of the epoch that first ran a tenant list.  These tests pin
what is reused, what is served again, that the trace still shows every
epoch's kernels, and that reuse gives the same numbers as serving every
epoch fresh.  They also pin that one controller can serve twice.
"""

import dataclasses
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
from repro.cluster import online
from repro.experiments.cluster_scale import churn_schedule
from repro.metrics.stats import RequestRecord, ServingResult
from repro.obs.analysis import request_critical_paths
from repro.workloads.suite import WorkloadBinding, bind_load

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
    real = online.serve_gpus

    def recording(gpu_bindings, *args, **kwargs):
        calls.append(
            {
                index: [binding.app.app_id for binding in bindings]
                for index, bindings in gpu_bindings
            }
        )
        return real(gpu_bindings, *args, **kwargs)

    monkeypatch.setattr(online, "serve_gpus", recording)
    return calls


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

    def test_migration_serves_both_gpus_again(self, served_lists):
        # Best fit packs a and b onto GPU 0; the epoch-1 rebalance moves
        # one of them to the idle GPU 1, changing both lists.
        result = OnlineClusterController(num_gpus=2, migrate=True).serve(
            schedule([("a", 0.4, 0, None), ("b", 0.4, 0, None)]), epochs=2
        )
        assert result.stats.migrations == 1
        assert served_lists[0] == {0: ["a", "b"]}
        assert served_lists[1] == result.placements[1]
        assert sorted(served_lists[1]) == [0, 1]

    def test_key_tells_a_degraded_quota_and_an_order_apart(self):
        a = inference_app("R50").with_quota(0.5, app_id="a")
        b = inference_app("VGG").with_quota(0.4, app_id="b")
        factory_a, factory_b = (
            binding.process_factory for binding in bind_load([a, b], "C", requests=2)
        )
        ab = [WorkloadBinding(a, factory_a), WorkloadBinding(b, factory_b)]
        ba = [ab[1], ab[0]]
        degraded = [WorkloadBinding(a.with_quota(0.25), factory_a), ab[1]]
        key = online._workload_key
        rebuilt = [WorkloadBinding(b.app, b.process_factory) for b in ab]
        assert key(rebuilt) == key(ab)
        assert key(ba) != key(ab)
        assert key(degraded) != key(ab)

    def test_pool_threshold_counts_served_gpus(self, monkeypatch):
        # Four occupied GPUs, of which only the one x joins changes at
        # epoch 1: that epoch serves one GPU, below the pool threshold.
        backends = []
        real = online.serve_gpus

        def recording(gpu_bindings, *args, backend=None, **kwargs):
            backends.append((len(gpu_bindings), backend))
            return real(gpu_bindings, *args, backend=backend, **kwargs)

        monkeypatch.setattr(online, "serve_gpus", recording)
        OnlineClusterController(num_gpus=4).serve(
            schedule(
                [(f"a{i}", 0.6, 0, None) for i in range(4)] + [("x", 0.3, 1, None)]
            ),
            jobs=2,
        )
        assert len(backends) == 2
        assert backends[1] == (1, "inproc")
        assert backends[0][1] != "inproc"


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
        monkeypatch.setattr(online, "_workload_key", lambda bindings: object())
        fresh = traced_run(tmp_path / "fresh.jsonl")
        assert fingerprint(reused.merged) == fingerprint(fresh.merged)
        assert (tmp_path / "reused.jsonl").read_bytes() == (
            tmp_path / "fresh.jsonl"
        ).read_bytes()


class TestReuseMatchesFreshServes:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_results_equal_a_fresh_serve_per_epoch(self, policy, seed):
        arrivals = churn(seed)
        result = OnlineClusterController(
            num_gpus=8, policy=PlacementPolicy(policy), migrate=True
        ).serve(arrivals, jobs=1)
        by_id = {arrival.app_id: arrival.binding for arrival in arrivals}

        def deployed(app_id):
            binding = by_id[app_id]
            quota = result.degraded_quotas.get(app_id)
            app = binding.app if quota is None else binding.app.with_quota(quota)
            return WorkloadBinding(app=app, process_factory=binding.process_factory)

        oracle = []
        for placement in result.placements:
            gpu_bindings = [
                (index, [deployed(app_id) for app_id in app_ids])
                for index, app_ids in sorted(placement.items())
            ]
            per_gpu, _ = serve_gpus(
                gpu_bindings, BlessRuntime, jobs=1
            )
            oracle.append(
                ServingResult.merge(
                    [per_gpu[index] for index, _ in gpu_bindings],
                    system=result.merged.system,
                    num_slots=8,
                )
            )
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
