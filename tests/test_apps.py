"""Unit tests for the application substrate: models, applications, requests."""

import pytest

from repro.apps.application import Application, AppKind, Request
from repro.apps.models import (
    MODEL_NAMES,
    _build_application,
    inference_app,
    microbenchmark_kernel,
    table1_expectation,
    training_app,
)
from repro.gpusim.kernel import KernelKind, KernelSpec


def spec(name="k", dur=10.0):
    return KernelSpec(name=name, base_duration_us=dur, sm_demand=0.5)


class TestModelTraces:
    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_inference_matches_table1(self, model):
        app = inference_app(model)
        expected_ms, expected_kernels = table1_expectation(model, "inference")
        assert app.num_compute_kernels == expected_kernels
        assert app.solo_span_us / 1000.0 == pytest.approx(expected_ms, rel=1e-6)

    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_training_matches_table1(self, model):
        app = training_app(model)
        expected_ms, expected_kernels = table1_expectation(model, "training")
        assert app.num_compute_kernels == expected_kernels
        assert app.solo_span_us / 1000.0 == pytest.approx(expected_ms, rel=1e-6)

    def test_traces_are_deterministic(self):
        a = _build_application("R50", "inference").kernels
        b = _build_application("R50", "inference").kernels
        assert a == b

    def test_apps_are_cached(self):
        assert inference_app("VGG") is inference_app("VGG")

    def test_kernel_duration_envelope(self):
        """The paper: kernel durations from 3us to 3ms."""
        for app in [maker(m) for maker in (inference_app, training_app)
                    for m in MODEL_NAMES]:
            for kernel in app.kernels:
                if kernel.is_compute:
                    assert 2.9 <= kernel.base_duration_us <= 3000.1

    def test_gap_budget_matches_utilization(self):
        """Fig. 1: VGG ~81%, R50 ~86% solo GPU utilization."""
        for model, target in (("VGG", 0.81), ("R50", 0.86)):
            app = inference_app(model)
            utilization = app.total_compute_us / app.solo_span_us
            assert utilization == pytest.approx(target, abs=0.01)

    def test_includes_h2d_and_d2h(self):
        kinds = [k.kind for k in inference_app("R50").kernels]
        assert kinds[0] == KernelKind.H2D
        assert kinds[-1] == KernelKind.D2H

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            inference_app("GPT5")

    def test_microbenchmark_kernel(self):
        k = microbenchmark_kernel(duration_us=50.0, sm_demand=0.3, mem_intensity=0.9)
        assert k.base_duration_us == 50.0
        assert k.mem_intensity == 0.9

    def test_kernels_are_upload_compute_download(self):
        """One H2D, then the Table-1 count of compute kernels, then one D2H."""
        for kind, maker in (("inference", inference_app), ("training", training_app)):
            for model in MODEL_NAMES:
                kinds = [k.kind for k in maker(model).kernels]
                _, n_compute = table1_expectation(model, kind)
                assert kinds == (
                    [KernelKind.H2D]
                    + [KernelKind.COMPUTE] * n_compute
                    + [KernelKind.D2H]
                )


class TestApplication:
    def test_quota_validation(self):
        with pytest.raises(ValueError):
            Application("a", AppKind.INFERENCE, [spec()], memory_mb=10, quota=0.0)

    def test_empty_kernels_rejected(self):
        with pytest.raises(ValueError):
            Application("a", AppKind.INFERENCE, [], memory_mb=10)

    def test_with_quota_copies(self):
        app = inference_app("VGG")
        copy = app.with_quota(0.25, app_id="vgg#1")
        assert copy.quota == 0.25
        assert copy.app_id == "vgg#1"
        assert app.quota == 1.0  # original untouched
        assert copy.kernels is app.kernels

    def test_mean_kernel_duration_in_paper_band(self):
        """§4.2.2: average kernel duration 10us..300us."""
        for app in [inference_app(m) for m in MODEL_NAMES]:
            assert 10.0 <= app.mean_kernel_duration() <= 300.0

    def test_solo_span_components(self):
        app = inference_app("R50")
        assert app.solo_span_us == pytest.approx(
            app.total_compute_us + app.total_gap_us
        )


class TestRequest:
    def test_kernel_instantiation(self):
        app = inference_app("VGG").with_quota(0.5, app_id="v1")
        request = Request(app=app, arrival_time=100.0)
        [kernel] = request.make_kernels([0])
        assert kernel.app_id == "v1"
        assert kernel.seq == 0
        assert kernel.request_id == request.request_id

    def test_latency_requires_completion(self):
        request = Request(app=inference_app("VGG"), arrival_time=0.0)
        with pytest.raises(RuntimeError):
            _ = request.latency
        request.finish_time = 42.0
        assert request.latency == 42.0

    def test_all_scheduled_tracking(self):
        app = inference_app("VGG")
        request = Request(app=app, arrival_time=0.0)
        assert not request.all_scheduled
        request.next_kernel = request.total_kernels
        assert request.all_scheduled

    def test_unique_request_ids(self):
        app = inference_app("VGG")
        a, b = Request(app=app, arrival_time=0.0), Request(app=app, arrival_time=0.0)
        assert a.request_id != b.request_id
