"""Tests for progress perception (§4.3.1) and squad generation (§4.3.2).

The scalar progress formulas (lag, remaining time, slack, the next
kernel's duration) live in ``tests/progress_oracle.py``; the runtime
reads the same numbers from each app's precomputed plan.
"""

import pytest

from repro.apps.application import Request
from repro.apps.models import inference_app
from repro.core.config import BlessConfig
from repro.core.profiler import OfflineProfiler
from repro.core.progress import SLACK_BIAS
from repro.core.squad import KernelSquad, generate_squad

from .progress_oracle import OracleProgress


def make_oracle(quota=0.5, arrival=0.0, app_id="a", model="R50", t_ref=None):
    app = inference_app(model).with_quota(quota, app_id=app_id)
    profile = OfflineProfiler().profile(app)
    config = BlessConfig()
    partition = config.nearest_partition(quota)
    if t_ref is None:
        t_ref = profile.iso_latency(partition)
    return OracleProgress(
        request=Request(app=app, arrival_time=arrival),
        profile=profile,
        partition=partition,
        t_ref_us=t_ref,
    )


def make_progress(quota=0.5, arrival=0.0, app_id="a", model="R50", t_ref=None):
    """The runtime's view of a fresh request: it and its app's plan."""
    return make_oracle(quota, arrival, app_id, model, t_ref).production()


class TestRequestProgress:
    def test_new_request_has_zero_tau(self):
        progress = make_progress()
        assert progress.plan.tau_us[0] == 0.0
        assert progress.request.next_kernel == 0
        assert not progress.exhausted

    def test_lag_grows_with_time_when_unserved(self):
        progress = make_oracle(arrival=0.0)
        assert progress.lag(1000.0) > progress.lag(100.0) > 0.0

    def test_lag_negative_when_ahead_of_plan(self):
        progress = make_oracle()
        progress.request.next_kernel = 40  # scheduled 40 kernels instantly
        assert progress.lag(10.0) < 0.0

    def test_urgency_floors_negative_lag(self):
        progress = make_progress()
        progress.request.next_kernel = 40
        # Deeply ahead of plan: urgency is just the (tiny) slack bonus,
        # never a negative number that would invert the ordering.
        assert 0.0 <= progress.urgency(10.0) <= SLACK_BIAS

    def test_urgency_prefers_more_progressed_on_tie(self):
        early = make_progress(arrival=0.0, app_id="early")
        late = make_progress(arrival=5000.0, app_id="late")
        # Both well ahead of plan -> lag floored to 0; the request with
        # more executed progress gets the slack bonus.
        early.request.next_kernel = 40
        late.request.next_kernel = 40
        now = 6000.0
        assert early.urgency(now) > late.urgency(now)

    def test_slo_target_changes_pace(self):
        tight = make_oracle(t_ref=10_000.0)
        loose = make_oracle(t_ref=40_000.0)
        # Same elapsed time, same zero progress: the tight target lags more.
        assert tight.lag(5_000.0) > loose.lag(5_000.0)
        tight, loose = tight.production(), loose.production()
        assert tight.urgency(9_000.0) > loose.urgency(9_000.0)

    def test_invalid_t_ref_rejected(self):
        with pytest.raises(ValueError):
            make_progress(t_ref=0.0)

    def test_relative_progress_tracks_plan(self):
        progress = make_progress()
        progress.request.next_kernel = 10
        tau = progress.plan.tau_us[10]
        assert progress.relative_progress(tau) == pytest.approx(1.0)

    def test_next_kernel_duration(self):
        progress = make_oracle()
        expected = progress.profile.duration(progress.partition, 0)
        assert progress.next_kernel_duration() == pytest.approx(expected)

    def test_next_kernel_duration_when_exhausted(self):
        progress = make_oracle()
        progress.request.next_kernel = progress.request.total_kernels
        with pytest.raises(RuntimeError):
            progress.next_kernel_duration()


class TestSquadGeneration:
    def test_respects_kernel_cap(self):
        config = BlessConfig(max_kernels_per_squad=10)
        a = make_progress(app_id="a", arrival=0.0)
        b = make_progress(app_id="b", arrival=0.0)
        squad = generate_squad([a, b], now=1000.0, config=config)
        assert squad.total_kernels <= 10

    def test_stops_at_request_end(self):
        config = BlessConfig(max_kernels_per_squad=500)
        a = make_progress(app_id="a", model="VGG")  # 33 kernels incl. memcpy
        generate_squad([a], now=1000.0, config=config)
        # Solo squads are capped, so drain the request in several calls.
        total = 0
        while not a.exhausted:
            total += generate_squad([a], now=1000.0, config=config).total_kernels or 1
            if total > 200:
                break
        assert a.exhausted

    def test_solo_squad_capped(self):
        config = BlessConfig(max_kernels_per_squad=40, solo_squad_fraction=0.25)
        a = make_progress(app_id="a")
        squad = generate_squad([a], now=1000.0, config=config)
        assert squad.total_kernels == 10

    def test_two_active_requests_both_served_when_on_plan(self):
        config = BlessConfig(max_kernels_per_squad=40)
        a = make_progress(app_id="a", arrival=0.0)
        b = make_progress(app_id="b", arrival=0.0)
        squad = generate_squad([a, b], now=10.0, config=config)
        assert set(squad.app_ids) == {"a", "b"}

    def test_lagging_request_compensated(self):
        config = BlessConfig(max_kernels_per_squad=40)
        lagging = make_progress(app_id="lag", arrival=0.0)
        ahead = make_progress(app_id="ahead", arrival=0.0)
        ahead.request.next_kernel = 30  # served a lot already
        squad = generate_squad([lagging, ahead], now=5000.0, config=config)
        assert squad.entry("lag").count > squad.entries.get(
            "ahead", type("E", (), {"count": 0})
        ).count

    def test_kernel_indices_contiguous_per_request(self):
        config = BlessConfig(max_kernels_per_squad=30)
        a = make_progress(app_id="a")
        b = make_progress(app_id="b")
        squad = generate_squad([a, b], now=100.0, config=config)
        for entry in squad.entries.values():
            idx = entry.kernel_indices
            assert idx == list(range(idx[0], idx[0] + len(idx)))

    def test_round_robin_ablation_alternates(self):
        config = BlessConfig(max_kernels_per_squad=10, use_multitask_scheduler=False)
        a = make_progress(app_id="a")
        b = make_progress(app_id="b")
        squad = generate_squad([a, b], now=100.0, config=config)
        assert squad.entry("a").count == squad.entry("b").count == 5

    def test_exhausted_requests_skipped(self):
        config = BlessConfig()
        a = make_progress(app_id="a")
        a.request.next_kernel = a.request.total_kernels
        squad = generate_squad([a], now=100.0, config=config)
        assert squad.total_kernels == 0

    def test_generation_advances_next_kernel(self):
        config = BlessConfig(max_kernels_per_squad=8, solo_squad_fraction=0.25)
        a = make_progress(app_id="a")
        generate_squad([a], now=100.0, config=config)
        assert a.request.next_kernel == 2  # 8 * 0.25 solo fraction

    def test_empty_input(self):
        assert generate_squad([], now=0.0, config=BlessConfig()).total_kernels == 0


class TestKernelSquad:
    def test_add_groups_by_app(self):
        squad = KernelSquad()
        app = inference_app("VGG").with_quota(0.5, app_id="x")
        request = Request(app=app, arrival_time=0.0)
        entry = squad.add(request, [0])
        assert squad.add(request, range(1, 2)) is entry
        assert squad.num_requests == 1
        assert squad.entry("x").count == 2
        assert squad.total_kernels == 2
