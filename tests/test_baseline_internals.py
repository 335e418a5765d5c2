"""Deeper behavioural tests for the baseline systems' mechanisms."""

import pytest

from repro.apps.application import Application, AppKind
from repro.apps.models import inference_app, training_app
from repro.baselines import (
    GSLICESystem,
    REEFPlusSystem,
    TemporalSystem,
    UnboundSystem,
    ZicoSystem,
)
from repro.baselines import temporal
from repro.gpusim.kernel import KernelSpec
from repro.workloads.arrivals import OneShot, TraceReplay
from repro.workloads.suite import WorkloadBinding, bind_load


def custom_app(app_id, n_kernels, dur, quota, demand=0.8):
    kernels = [
        KernelSpec(name=f"{app_id}-{i}", base_duration_us=dur, sm_demand=demand,
                   mem_intensity=0.2)
        for i in range(n_kernels)
    ]
    return Application(name=app_id, kind=AppKind.INFERENCE, kernels=kernels,
                       memory_mb=10, quota=quota, app_id=app_id)


def oneshot(apps):
    return [WorkloadBinding(app=a, process_factory=OneShot) for a in apps]


class TestTemporalMechanics:
    def test_slice_rotation_interleaves_progress(self, monkeypatch):
        """With two active requests, neither finishes a whole request
        before the other has started (slices rotate)."""
        monkeypatch.setattr(temporal, "CYCLE_US", 2_000.0)
        apps = [
            custom_app("a", 40, 200.0, 0.5),
            custom_app("b", 40, 200.0, 0.5),
        ]
        system = TemporalSystem(record_timeline=True)
        result = system.serve(oneshot(apps))
        finishes = sorted(r.finish for r in result.records)
        # Interleaving: both finish within ~2 cycles of each other, not
        # back-to-back full requests (8ms each).
        assert finishes[1] - finishes[0] < 6_000.0

    def test_context_switch_charged_between_slices(self, monkeypatch):
        """Temporal's makespan strictly exceeds the work content."""
        monkeypatch.setattr(temporal, "CYCLE_US", 1_000.0)
        apps = [custom_app("a", 20, 100.0, 0.5), custom_app("b", 20, 100.0, 0.5)]
        result = TemporalSystem().serve(oneshot(apps))
        work = 2 * 20 * 100.0
        assert result.makespan_us > work * 1.05

    def test_idle_yield_lets_system_finish(self):
        """Rotation stops when everyone is idle (no infinite polling)."""
        apps = [custom_app("a", 4, 100.0, 0.5)]
        result = TemporalSystem().serve(oneshot(apps))
        assert result.count() == 1

    def test_requests_arriving_after_idle_restart_rotation(self):
        apps = [custom_app("a", 4, 100.0, 1.0)]
        bindings = [
            WorkloadBinding(
                app=apps[0],
                process_factory=lambda: TraceReplay(times_us=[0.0, 50_000.0]),
            )
        ]
        result = TemporalSystem().serve(bindings)
        assert result.count() == 2


class TestZicoMechanics:
    def test_halves_synchronise(self):
        """Both clients issue their second halves; nobody deadlocks."""
        pair = [
            training_app("VGG").with_quota(0.5, app_id="t1"),
            training_app("VGG").with_quota(0.5, app_id="t2"),
        ]
        result = ZicoSystem().serve(oneshot(pair))
        assert result.count() == 2

    def test_single_client_degenerates_to_unbound(self):
        app = training_app("VGG").with_quota(1.0, app_id="solo")
        zico = ZicoSystem().serve(oneshot([app]))
        unbound = UnboundSystem().serve(oneshot([app.with_quota(1.0, app_id="solo")]))
        assert zico.mean_latency("solo") == pytest.approx(
            unbound.mean_latency("solo"), rel=0.05
        )

    def test_closed_loop_iterations(self):
        pair = [
            training_app("VGG").with_quota(0.5, app_id="t1"),
            training_app("R50").with_quota(0.5, app_id="t2"),
        ]
        result = ZicoSystem().serve(bind_load(pair, "C", requests=2))
        assert result.count() == 4


class TestREEFMechanics:
    def test_highest_quota_becomes_rt(self):
        apps = [
            custom_app("small", 20, 100.0, 0.2),
            custom_app("big", 20, 100.0, 0.8),
        ]
        system = REEFPlusSystem()
        system.serve(oneshot(apps))
        assert system.clients["big"].attachments["is_rt"]
        assert not system.clients["small"].attachments["is_rt"]

    def test_three_clients_one_rt(self):
        apps = [
            custom_app("a", 10, 100.0, 0.5),
            custom_app("b", 10, 100.0, 0.3),
            custom_app("c", 10, 100.0, 0.2),
        ]
        system = REEFPlusSystem()
        result = system.serve(oneshot(apps))
        rt_flags = [c.attachments["is_rt"] for c in system.clients.values()]
        assert sum(rt_flags) == 1
        assert result.count() == 3


class TestGsliceMechanics:
    def test_partition_sizes_match_quotas(self):
        apps = [
            inference_app("VGG").with_quota(0.25, app_id="q1"),
            inference_app("R50").with_quota(0.75, app_id="q2"),
        ]
        system = GSLICESystem()
        system.serve(oneshot(apps))
        limits = {
            c.app_id: c.attachments["queue"].context.sm_limit
            for c in system.clients.values()
        }
        assert limits["q1"] == pytest.approx(0.25)
        assert limits["q2"] == pytest.approx(0.75)

    def test_bigger_quota_faster_for_same_app(self):
        apps = [
            inference_app("R50").with_quota(0.25, app_id="slow"),
            inference_app("R50").with_quota(0.75, app_id="fast"),
        ]
        result = GSLICESystem().serve(oneshot(apps))
        assert result.mean_latency("fast") < result.mean_latency("slow")
