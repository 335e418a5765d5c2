"""Integration tests for the comparison sharing systems."""

import pytest

from repro.apps.models import inference_app
from repro.baselines import (
    GSLICESystem,
    ISOSystem,
    MIGSystem,
    REEFPlusSystem,
    TemporalSystem,
    UnboundSystem,
    ZicoSystem,
    iso_targets_us,
    solo_latency_us,
)
from repro.workloads.arrivals import OneShot
from repro.workloads.suite import (
    WorkloadBinding,
    bind_load,
    symmetric_pair,
    training_pair,
)

REQUESTS = 4


def r50_pair():
    return symmetric_pair("R50")


def oneshot_bindings(apps):
    return [WorkloadBinding(app=a, process_factory=OneShot) for a in apps]


class TestHarnessInvariants:
    @pytest.mark.parametrize(
        "system_cls",
        [ISOSystem, TemporalSystem, MIGSystem, GSLICESystem, UnboundSystem, REEFPlusSystem],
    )
    def test_all_requests_served(self, system_cls):
        bindings = bind_load(r50_pair(), "C", requests=REQUESTS)
        result = system_cls().serve(bindings)
        assert result.count() == 2 * REQUESTS

    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError):
            GSLICESystem().serve([])

    def test_duplicate_app_id_rejected(self):
        app = inference_app("VGG").with_quota(0.5)
        bindings = oneshot_bindings([app, app])
        with pytest.raises(ValueError):
            GSLICESystem().serve(bindings)

    def test_latencies_positive_and_finite(self):
        result = UnboundSystem().serve(bind_load(r50_pair(), "B", requests=REQUESTS))
        assert all(r.latency > 0 for r in result.records)

    def test_memory_admission_enforced(self):
        big = inference_app("BERT")
        apps = [
            big.with_quota(0.1, app_id=f"b{i}")
            for i in range(40)  # 40 x 1.3GB > 40GB
        ]
        from repro.gpusim.device import OutOfMemoryError

        with pytest.raises(OutOfMemoryError):
            UnboundSystem().serve(oneshot_bindings(apps))


class TestISO:
    def test_solo_latency_at_full_gpu_matches_span(self):
        app = inference_app("R50")
        assert solo_latency_us(app, 1.0) == pytest.approx(app.solo_span_us, rel=0.01)

    def test_solo_latency_increases_with_smaller_partition(self):
        app = inference_app("R50")
        latencies = [solo_latency_us(app, f) for f in (1.0, 0.5, 0.25)]
        assert latencies == sorted(latencies)

    def test_iso_targets_cover_all_apps(self):
        bindings = bind_load(r50_pair(), "C", requests=2)
        targets = iso_targets_us(bindings)
        assert set(targets) == {a.app_id for a in r50_pair()}

    def test_apps_do_not_interact(self):
        """ISO latency of an app is independent of its co-runner."""
        apps = r50_pair()
        solo = ISOSystem().serve(oneshot_bindings(apps[:1]))
        both = ISOSystem().serve(oneshot_bindings(apps))
        assert solo.mean_latency(apps[0].app_id) == pytest.approx(
            both.mean_latency(apps[0].app_id)
        )


class TestGSLICE:
    def test_interference_above_iso(self):
        """Fig. 9(b): co-located partitions ~5-10% above ISO."""
        apps = r50_pair()
        iso = ISOSystem().serve(oneshot_bindings(apps))
        shared = GSLICESystem().serve(oneshot_bindings(apps))
        ratio = shared.mean_of_app_means() / iso.mean_of_app_means()
        assert 1.0 < ratio < 1.2

    def test_quota_oversubscription_rejected(self):
        apps = [
            inference_app("VGG").with_quota(0.7, app_id="a"),
            inference_app("VGG").with_quota(0.7, app_id="b"),
        ]
        with pytest.raises(ValueError):
            GSLICESystem().serve(oneshot_bindings(apps))

    def test_idle_partition_not_lent(self):
        """An app alone under GSLICE still runs at its quota, not the
        whole GPU — the bubbles static sharing cannot squeeze."""
        app = inference_app("R50").with_quota(0.5, app_id="solo")
        result = GSLICESystem().serve(oneshot_bindings([app]))
        assert result.mean_latency("solo") > 1.2 * app.solo_span_us


class TestMIG:
    def test_even_pair_slower_than_gslice(self):
        """50/50 -> 3/7 slices each: MIG under-provisions."""
        apps = r50_pair()
        gslice = GSLICESystem().serve(oneshot_bindings(apps))
        mig = MIGSystem().serve(oneshot_bindings(apps))
        assert mig.mean_of_app_means() > gslice.mean_of_app_means() * 0.98

    def test_no_interference_across_slices(self):
        apps = r50_pair()
        mig = MIGSystem().serve(oneshot_bindings(apps))
        # Each app at 3/7 of the GPU, isolated.
        expected = solo_latency_us(inference_app("R50"), 3 / 7)
        for app in apps:
            assert mig.mean_latency(app.app_id) == pytest.approx(expected, rel=0.02)


class TestTemporal:
    def test_worse_than_gslice_when_saturated(self):
        apps = r50_pair()
        bindings = bind_load(apps, "A", requests=REQUESTS)
        temporal = TemporalSystem().serve(bindings)
        gslice = GSLICESystem().serve(bind_load(apps, "A", requests=REQUESTS))
        assert temporal.mean_of_app_means() > gslice.mean_of_app_means()

    def test_low_utilization(self):
        result = TemporalSystem().serve(bind_load(r50_pair(), "A", requests=REQUESTS))
        assert result.utilization < 0.9

    def test_quota_proportional_slices(self):
        """The 2/3-quota app gets more GPU time than the 1/3 app."""
        apps = [
            inference_app("R50").with_quota(2 / 3, app_id="big"),
            inference_app("R50").with_quota(1 / 3, app_id="small"),
        ]
        result = TemporalSystem().serve(bind_load(apps, "A", requests=REQUESTS))
        assert result.mean_latency("big") < result.mean_latency("small")

    def test_slices_rotate_in_registration_order(self):
        """Identical apps arriving together finish in registration
        order: the first registered gets the first slice, and the
        rotation follows the binding list, in either order."""
        apps = [inference_app("R50").with_quota(1 / 3, app_id=i) for i in "abc"]
        for order in (apps, apps[::-1]):
            result = TemporalSystem().serve(oneshot_bindings(order))
            latencies = [result.mean_latency(a.app_id) for a in order]
            assert latencies == sorted(latencies)
            assert len(set(latencies)) == 3


class TestUnbound:
    def test_solo_request_runs_at_full_speed(self):
        app = inference_app("R50").with_quota(0.5, app_id="solo")
        result = UnboundSystem().serve(oneshot_bindings([app]))
        assert result.mean_latency("solo") == pytest.approx(app.solo_span_us, rel=0.02)

    def test_coactive_pair_slower_than_solo(self):
        apps = r50_pair()
        result = UnboundSystem().serve(oneshot_bindings(apps))
        assert result.mean_of_app_means() > inference_app("R50").solo_span_us


class TestREEFPlus:
    def test_rt_client_favoured(self):
        apps = [
            inference_app("R50").with_quota(2 / 3, app_id="rt"),
            inference_app("R50").with_quota(1 / 3, app_id="be"),
        ]
        result = REEFPlusSystem().serve(oneshot_bindings(apps))
        assert result.mean_latency("rt") < result.mean_latency("be")

    def test_rt_latency_near_solo(self):
        apps = [
            inference_app("R50").with_quota(2 / 3, app_id="rt"),
            inference_app("VGG").with_quota(1 / 3, app_id="be"),
        ]
        result = REEFPlusSystem().serve(oneshot_bindings(apps))
        assert result.mean_latency("rt") < 1.45 * inference_app("R50").solo_span_us

    def test_equal_quotas_first_registered_is_rt(self):
        apps = [inference_app("R50").with_quota(0.5, app_id=i) for i in "ab"]
        for order in (apps, apps[::-1]):
            first, second = (a.app_id for a in order)
            system = REEFPlusSystem()
            result = system.serve(oneshot_bindings(order))
            assert system.clients[first].attachments["is_rt"]
            assert not system.clients[second].attachments["is_rt"]
            assert result.mean_latency(first) < result.mean_latency(second)


class TestZico:
    def test_serves_training_pair(self):
        pair = training_pair("VGG", "R50")
        result = ZicoSystem().serve(bind_load(pair, "C", requests=2))
        assert result.count() == 4

    def test_tick_tock_not_worse_than_temporal(self):
        pair = training_pair("VGG", "R50")
        zico = ZicoSystem().serve(bind_load(pair, "C", requests=2))
        temporal = TemporalSystem().serve(bind_load(pair, "C", requests=2))
        assert zico.mean_of_app_means() <= temporal.mean_of_app_means() * 1.05
