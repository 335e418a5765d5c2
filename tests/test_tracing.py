"""Tests for the kernel records of the decision tracer's one stream."""

import hashlib
import json

import pytest

from repro.apps.models import inference_app
from repro.core.runtime import BlessRuntime
from repro.gpusim.context import ContextRegistry
from repro.gpusim.device import GPUDevice
from repro.gpusim.engine import SimEngine
from repro.gpusim.kernel import KernelInstance, KernelSpec
from repro.gpusim.faults import FaultPlan
from repro.obs import DecisionTracer, load_records_jsonl, save_perfetto
from repro.workloads.arrivals import OneShot
from repro.workloads.suite import WorkloadBinding, bind_load

KERNEL_FIELDS = [
    "name",
    "request_id",
    "seq",
    "kind",
    "enqueue_us",
    "start_us",
    "finish_us",
    "sm_fraction",
    "context_id",
    "context_limit",
]


def run_traced(n_kernels=3):
    engine = SimEngine(device=GPUDevice())
    tracer = DecisionTracer(engine)
    registry = ContextRegistry(engine.device)
    ctx = registry.create("app", 0.5, charge_memory=False)
    queue = engine.create_queue(ctx)
    for i in range(n_kernels):
        spec = KernelSpec(name=f"k{i}", base_duration_us=20.0, sm_demand=0.4)
        engine.launch(KernelInstance(spec, app_id="app", seq=i), queue)
    engine.run()
    return tracer


def kernels(tracer):
    return [r for r in tracer.records if r.is_kernel]


class TestTracer:
    def test_one_event_per_kernel(self):
        records = kernels(run_traced(4))
        assert len(records) == 4
        assert [r.args["seq"] for r in records] == [0, 1, 2, 3]

    def test_event_fields(self):
        (record,) = kernels(run_traced(1))
        args = record.args
        assert list(args) == KERNEL_FIELDS
        assert record.app_id == "app"
        assert record.ts_us == args["finish_us"]
        assert args["kind"] == "compute"
        assert args["finish_us"] - args["start_us"] == pytest.approx(20.0)
        assert args["finish_us"] > args["start_us"] >= args["enqueue_us"]
        assert args["context_limit"] == pytest.approx(0.5)
        assert args["context_id"] >= 0

    def test_queue_wait_measured(self):
        args = kernels(run_traced(3))[2].args
        # Kernel 2 waited for kernels 0 and 1.
        assert args["start_us"] - args["enqueue_us"] == pytest.approx(
            40.0, rel=0.01
        )

    def test_jsonl_roundtrip(self, tmp_path):
        tracer = run_traced(3)
        path = tmp_path / "trace.jsonl"
        assert tracer.save_records_jsonl(path) == 3
        reloaded = load_records_jsonl(path)
        assert len(reloaded) == 3
        original = kernels(tracer)
        assert reloaded[0].args["name"] == original[0].args["name"]

        def duration(record):
            return record.args["finish_us"] - record.args["start_us"]

        assert duration(reloaded[2]) == pytest.approx(duration(original[2]))

    def test_trace_of_full_bless_run(self):
        apps = [
            inference_app("VGG").with_quota(0.5, app_id="v"),
            inference_app("R50").with_quota(0.5, app_id="r"),
        ]
        system = BlessRuntime(trace=True)
        system.serve([WorkloadBinding(app=a, process_factory=OneShot) for a in apps])
        records = kernels(system.obs.tracer)
        assert len(records) == sum(len(a.kernels) for a in apps)
        # Restricted contexts appear in the trace when squads go spatial.
        limits = {r.args["context_limit"] for r in records}
        assert 1.0 in limits


# SHA-256 of the Perfetto export below, as written when each kernel
# instance still stored its context id and limit at start: reading them
# back from the kernel's queue at completion must not move a byte.
PERFETTO_SHA256 = "4a71995677a17a45d2a27b692da6af0e870d7bbf4e7869ef3d0bf046c7c2ca68"


def test_perfetto_export_is_pinned(tmp_path):
    # Spatial squads (restricted contexts) plus a context crash, whose
    # killed kernels are relaunched on a fresh queue.
    plan = FaultPlan(kernel_failure_rate=0.05, context_crash_times=(4000.0,), seed=7)
    system = BlessRuntime(trace=True, fault_plan=plan)
    apps = [
        inference_app("R50").with_quota(0.7, app_id="R50-inf#1"),
        inference_app("R50").with_quota(0.3, app_id="R50-inf#2"),
    ]
    system.serve(bind_load(apps, "A", requests=3))
    path = tmp_path / "trace.json"
    save_perfetto(system.obs.tracer.records, path)
    data = path.read_bytes()
    slices = [
        event
        for event in json.loads(data)["traceEvents"]
        if event["ph"] == "X" and event["pid"] == 2
    ]
    limits = {event["args"]["context_limit"] for event in slices}
    assert min(limits) < 1.0 and 1.0 in limits
    assert len({event["tid"] for event in slices}) > 2
    assert hashlib.sha256(data).hexdigest() == PERFETTO_SHA256
