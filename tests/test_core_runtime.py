"""End-to-end tests for the BLESS runtime — the paper's headline claims."""

import pytest

from repro.apps.models import inference_app
from repro.baselines import (
    GSLICESystem,
    TemporalSystem,
    iso_targets_us,
    solo_latency_us,
)
from repro.core.config import SCHEDULING_US_PER_KERNEL, BlessConfig
from repro.core.runtime import BlessRuntime
from repro.metrics.deviation import latency_deviation_us
from repro.metrics.stats import qos_violation_rate
from repro.workloads.arrivals import OneShot
from repro.workloads.suite import (
    WorkloadBinding,
    bind_biased,
    bind_continuous,
    bind_load,
    multi_app_mix,
    symmetric_pair,
)

REQUESTS = 6


def oneshot(apps):
    return [WorkloadBinding(app=a, process_factory=OneShot) for a in apps]


class TestServingBasics:
    def test_all_requests_served(self):
        result = BlessRuntime().serve(bind_load(symmetric_pair("R50"), "B", requests=REQUESTS))
        assert result.count() == 2 * REQUESTS

    def test_extras_populated(self):
        result = BlessRuntime().serve(bind_load(symmetric_pair("R50"), "C", requests=2))
        assert result.extras["squads"] > 0
        assert result.extras["kernels_per_squad"] > 0

    def test_single_app_whole_gpu(self):
        """A lone request uses the full GPU: near-solo latency (+ small
        scheduling overheads)."""
        app = inference_app("R50").with_quota(0.5, app_id="solo")
        result = BlessRuntime().serve(oneshot([app]))
        assert result.mean_latency("solo") < 1.1 * app.solo_span_us

    def test_deterministic_given_seeded_workload(self):
        a = BlessRuntime().serve(bind_load(symmetric_pair("R50"), "C", requests=3))
        b = BlessRuntime().serve(bind_load(symmetric_pair("R50"), "C", requests=3))
        assert a.mean_of_app_means() == pytest.approx(b.mean_of_app_means())


class TestHeadlineClaims:
    def test_beats_temporal(self):
        """Fig. 13: BLESS's largest win is over time slicing."""
        apps = symmetric_pair("R50")
        bless = BlessRuntime().serve(bind_load(apps, "B", requests=REQUESTS))
        temporal = TemporalSystem().serve(bind_load(apps, "B", requests=REQUESTS))
        assert bless.mean_of_app_means() < temporal.mean_of_app_means()

    def test_beats_gslice_at_low_load(self):
        """Bubbles abound at load C: BLESS squeezes them, GSLICE cannot."""
        apps = symmetric_pair("R50")
        bless = BlessRuntime().serve(bind_load(apps, "C", requests=REQUESTS))
        gslice = GSLICESystem().serve(bind_load(apps, "C", requests=REQUESTS))
        assert bless.mean_of_app_means() < gslice.mean_of_app_means()

    def test_beats_iso_at_low_load(self):
        """'All applications can experience reduced latency compared to
        scenarios where applications are deployed with computing
        resources provisioned as quotas.'"""
        apps = symmetric_pair("R50")
        bless = BlessRuntime().serve(bind_load(apps, "C", requests=REQUESTS))
        targets = iso_targets_us(bind_load(apps, "C", requests=REQUESTS))
        for app in apps:
            assert bless.mean_latency(app.app_id) < targets[app.app_id]

    def test_near_gslice_when_saturated(self):
        """§6.3: with continuous arrivals there are no bubbles; BLESS
        stays within a few % of GSLICE (paper: < 3%, we allow 15% — see EXPERIMENTS.md)."""
        apps = symmetric_pair("R50")
        bless = BlessRuntime().serve(bind_continuous(apps, requests=REQUESTS))
        gslice = GSLICESystem().serve(bind_continuous(apps, requests=REQUESTS))
        assert bless.mean_of_app_means() < 1.15 * gslice.mean_of_app_means()

    def test_zero_ish_deviation_under_uneven_quotas(self):
        """Fig. 14: BLESS keeps the quota promise."""
        apps = [
            inference_app("R50").with_quota(1 / 3, app_id="a"),
            inference_app("VGG").with_quota(2 / 3, app_id="b"),
        ]
        targets = iso_targets_us(bind_load(apps, "B", requests=REQUESTS))
        result = BlessRuntime().serve(bind_load(apps, "B", requests=REQUESTS))
        deviation = latency_deviation_us(result, targets)
        assert deviation < 0.05 * sum(targets.values())

    def test_multiapp_beats_gslice(self):
        """Fig. 15: gains grow with the number of co-located apps."""
        apps = multi_app_mix(4)
        bless = BlessRuntime().serve(bind_load(apps, "B", requests=3))
        gslice = GSLICESystem().serve(bind_load(apps, "B", requests=3))
        assert bless.mean_of_app_means() < gslice.mean_of_app_means()

    def test_biased_workload_boosts_small_quota_app(self):
        """Fig. 16: the dense 1/9-quota app gets far more throughput."""
        bindings = bind_biased(inference_app("R50"), inference_app("VGG"), requests=REQUESTS)
        bless = BlessRuntime().serve(bindings)
        gslice = GSLICESystem().serve(
            bind_biased(inference_app("R50"), inference_app("VGG"), requests=REQUESTS)
        )
        app2 = next(a for a in bless.app_ids if "#2" in a)
        assert bless.throughput_qps(app2) > 1.5 * gslice.throughput_qps(app2)


class TestSLOMode:
    def test_slo_targets_met(self):
        apps = symmetric_pair("R50")
        targets = {
            a.app_id: 1.5 * solo_latency_us(inference_app("R50"), 0.5) for a in apps
        }
        config = BlessConfig(slo_targets_us=targets)
        result = BlessRuntime(config=config).serve(bind_load(apps, "B", requests=REQUESTS))
        assert qos_violation_rate(result, targets) <= 0.1

    def test_loose_target_deprioritised(self):
        apps = [
            inference_app("R50").with_quota(0.5, app_id="tight"),
            inference_app("R50").with_quota(0.5, app_id="loose"),
        ]
        iso = solo_latency_us(inference_app("R50"), 0.5)
        config = BlessConfig(
            slo_targets_us={"tight": 1.2 * iso, "loose": 3.0 * iso}
        )
        result = BlessRuntime(config=config).serve(oneshot(apps))
        assert result.mean_latency("tight") <= result.mean_latency("loose")


class TestAblations:
    def test_ablated_variants_still_serve(self):
        apps = symmetric_pair("VGG")
        for config in (
            BlessConfig(use_multitask_scheduler=False),
            BlessConfig(use_config_determiner=False),
            BlessConfig(semi_sp_mode="static"),
        ):
            result = BlessRuntime(config=config).serve(
                bind_load(apps, "C", requests=2)
            )
            assert result.count() == 4

    def test_scheduler_protects_quota(self):
        """Without the multi-task scheduler's dynamic kernel-count
        control, the high-quota app in the biased workload loses its
        promise badly (Fig. 20's scheduler ablation, sharpest under
        workload E)."""
        full = BlessRuntime().serve(
            bind_biased(inference_app("R50"), inference_app("VGG"), requests=REQUESTS)
        )
        ablated = BlessRuntime(
            config=BlessConfig(use_multitask_scheduler=False)
        ).serve(
            bind_biased(inference_app("R50"), inference_app("VGG"), requests=REQUESTS)
        )
        app1 = next(a for a in full.app_ids if "#1" in a)
        assert full.mean_latency(app1) < ablated.mean_latency(app1)


class TestHyperParameters:
    def test_partition_mapping(self):
        config = BlessConfig()
        assert config.nearest_partition(0.5) == 9
        assert config.nearest_partition(1 / 3) == 6
        assert config.nearest_partition(0.05) == 1
        assert config.partition_fraction(18) == 1.0

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            BlessConfig(num_partitions=1)
        with pytest.raises(ValueError):
            BlessConfig(split_ratio=1.5)
        with pytest.raises(ValueError):
            BlessConfig(max_kernels_per_squad=0)
        with pytest.raises(ValueError):
            BlessConfig(semi_sp_mode="bogus")
        with pytest.raises(ValueError):
            BlessConfig(solo_squad_fraction=0.0)

    def test_scheduling_cost_totals(self):
        assert SCHEDULING_US_PER_KERNEL == pytest.approx(6.7)
