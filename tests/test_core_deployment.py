"""Tests for deployment admission checks (§4.2.2)."""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.application import Application, AppKind
from repro.apps.models import MODEL_NAMES, inference_app
from repro.core.deployment import (
    MAX_DURATION_DISPARITY,
    AdmissionReport,
    check_admission,
    compute_duration_stats,
)
from repro.gpusim.device import GPUSpec
from repro.gpusim.kernel import KernelSpec


def custom_app(name, durations, memory_mb=100):
    kernels = [
        KernelSpec(name=f"{name}-{i}", base_duration_us=d, sm_demand=0.5)
        for i, d in enumerate(durations)
    ]
    return Application(
        name=name, kind=AppKind.INFERENCE, kernels=kernels,
        memory_mb=memory_mb, quota=0.4, app_id=name,
    )


class TestMemoryAdmission:
    def test_fitting_pair_accepted(self):
        apps = [
            inference_app("R50").with_quota(0.5, app_id="a"),
            inference_app("VGG").with_quota(0.5, app_id="b"),
        ]
        report = check_admission(apps)
        assert report.accepted
        assert not report.errors

    def test_memory_oversubscription_rejected(self):
        apps = [
            custom_app(f"big{i}", [100.0] * 10, memory_mb=6000).with_quota(
                0.1, app_id=f"big{i}"
            )
            for i in range(8)  # 48GB > 40GB
        ]
        report = check_admission(apps)
        assert not report.accepted
        assert any("memory" in e for e in report.errors)

    def test_mps_context_memory_counted(self):
        app = custom_app("a", [100.0] * 10, memory_mb=40 * 1024 - 100)
        report = check_admission([app.with_quota(1.0)])
        assert not report.accepted

    def test_custom_gpu_spec(self):
        app = custom_app("a", [100.0] * 10, memory_mb=20_000)
        small_gpu = GPUSpec(memory_mb=10_000)
        assert not check_admission([app], gpu_spec=small_gpu).accepted
        assert check_admission([app]).accepted  # fits the default A100


class TestQuotaAdmission:
    def test_oversubscribed_quotas_rejected(self):
        apps = [
            custom_app("a", [100.0] * 10).with_quota(0.7, app_id="a"),
            custom_app("b", [100.0] * 10).with_quota(0.7, app_id="b"),
        ]
        report = check_admission(apps)
        assert not report.accepted
        assert any("quota" in e for e in report.errors)


class TestKernelCompatibility:
    def test_all_paper_models_co_deployable(self):
        apps = [
            app.with_quota(0.2, app_id=f"{app.name}#{i}")
            for i, app in enumerate(inference_app(m) for m in MODEL_NAMES)
        ]
        # Large memory total, so only check the duration rules here.
        report = check_admission(apps)
        assert not any("starve" in e for e in report.errors)

    def test_extreme_disparity_rejected(self):
        short = custom_app("short", [10.0] * 50)
        long = custom_app("long", [10.0 * MAX_DURATION_DISPARITY * 2] * 5)
        report = check_admission(
            [short.with_quota(0.4, app_id="s"), long.with_quota(0.4, app_id="l")]
        )
        assert not report.accepted
        assert any("starve" in e for e in report.errors)

    def test_out_of_band_mean_warns(self):
        tiny = custom_app("tiny", [4.0] * 50)
        report = check_admission([tiny])
        assert report.warnings  # mean kernel duration below 10us band

    def test_empty_deployment_rejected(self):
        report = check_admission([])
        assert not report.accepted


class TestReportType:
    def test_report_structure(self):
        report = AdmissionReport(accepted=True)
        assert report.errors == [] and report.warnings == []


def rescaled(app, factor):
    """A same-named copy of ``app`` whose kernels run ``factor`` times longer."""
    return Application(
        name=app.name,
        kind=app.kind,
        kernels=[
            replace(k, base_duration_us=k.base_duration_us * factor)
            for k in app.kernels
        ],
        memory_mb=app.memory_mb,
        quota=app.quota,
        app_id=app.app_id,
    )


def accepted_recomputed(apps):
    """The admission decision on the default GPU, with no cached stats."""
    spec = GPUSpec()
    stats = []
    for app in apps:
        durations = [k.base_duration_us for k in app.kernels if k.is_compute]
        stats.append(
            (sum(durations) / len(durations), max(durations))
            if durations
            else (0.0, 0.0)
        )
    memory = sum(a.memory_mb for a in apps) + 2 * len(apps) * spec.mps_context_mb
    if memory > spec.memory_mb or sum(a.quota for a in apps) > 1.0 + 1e-9:
        return False
    for i, (mean_short, _) in enumerate(stats):
        for j, (_, max_long) in enumerate(stats):
            if i != j and mean_short > 0 and max_long / mean_short > MAX_DURATION_DISPARITY:
                return False
    return True


class TestDurationStats:
    def test_same_named_rescaled_copy_gets_its_own_stats(self):
        short = custom_app("svc", [10.0] * 20)
        partner = custom_app("other", [10.0] * 20)
        assert check_admission([short, partner]).accepted  # caches both
        long = rescaled(partner, MAX_DURATION_DISPARITY * 2)
        assert long.name == partner.name and long.app_id == partner.app_id
        assert compute_duration_stats(long) == (
            10.0 * MAX_DURATION_DISPARITY * 2,
            10.0 * MAX_DURATION_DISPARITY * 2,
        )
        assert not check_admission([short, long]).accepted
        assert check_admission([short, partner]).accepted

    def test_reassigned_kernel_list_recomputes(self):
        app = custom_app("svc", [20.0] * 10)
        assert compute_duration_stats(app) == (20.0, 20.0)
        app.kernels = [replace(k, base_duration_us=40.0) for k in app.kernels]
        assert compute_duration_stats(app) == (40.0, 40.0)

    @settings(max_examples=60, deadline=None)
    @given(
        members=st.lists(
            st.tuples(
                st.sampled_from(["R50", "VGG", "BERT", "R101", "NAS"]),
                st.sampled_from([1.0, 0.05, 50.0, 400.0]),
                st.sampled_from([0.1, 0.2, 0.3, 0.5]),
            ),
            min_size=1,
            max_size=5,
        ),
        order=st.randoms(use_true_random=False),
    )
    def test_accepted_matches_a_recomputed_check(self, members, order):
        # Same-named apps with different traces share one pool, and three
        # groups are drawn from it, so later checks read cached stats.
        pool = [
            rescaled(inference_app(model), factor).with_quota(
                quota, app_id=f"{model}#{index}"
            )
            for index, (model, factor, quota) in enumerate(members)
        ]
        for _ in range(3):
            group = order.sample(pool, order.randint(1, len(pool)))
            assert check_admission(group).accepted == accepted_recomputed(group)
