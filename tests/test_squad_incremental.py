"""Differential and complexity tests for incremental squad generation.

``generate_squad`` computes each candidate's selection key once per call
and refreshes only the winner's key after each pick, reading urgency
from each app's precomputed plan.  The reference below is the earlier
selection loop, which recomputes every key for every selected kernel
through the per-call formulas of ``tests/progress_oracle.py``; the two
must compose identical squads.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.application import Request
from repro.apps.models import MODEL_NAMES, inference_app
from repro.core.config import BlessConfig
from repro.core.profiler import OfflineProfiler
from repro.core.progress import AppPlan, RequestProgress
from repro.core.squad import KernelSquad, generate_squad

from .app_variants import other_trace
from .progress_oracle import OracleProgress


def reference_generate_squad(progresses, now, config):
    """The O(N x K) loop: every key recomputed for every pick."""
    squad = KernelSquad()
    candidates = [p for p in progresses if not p.exhausted]
    if not candidates:
        return squad

    limit = config.max_kernels_per_squad
    solo = len(candidates) == 1
    if solo:
        limit = max(1, round(limit * config.solo_squad_fraction))

    accumulated_us = 0.0
    rr_index = 0
    while squad.total_kernels < limit:
        available = [p for p in candidates if not p.exhausted]
        if not available:
            break
        if config.use_multitask_scheduler:
            def key(p):
                entry = squad.entries.get(p.request.app.app_id)
                in_squad = entry.count if entry is not None else 0
                return (p.urgency(now), -in_squad / p.request.app.quota)

            chosen = max(available, key=key)
        else:
            chosen = available[rr_index % len(available)]
            rr_index += 1
        index = chosen.request.next_kernel
        squad.add(chosen.request, [index])
        if solo:
            accumulated_us += chosen.profile.step_cost(
                chosen.profile.num_partitions, index
            )
        chosen.request.next_kernel = index + 1
        if chosen.request.all_scheduled:
            break
        if solo and accumulated_us >= config.solo_squad_budget_us:
            break
    return squad


@lru_cache(maxsize=None)
def _base_app(model, gap_stride):
    app = inference_app(model)
    return app if gap_stride is None else other_trace(app, gap_stride)


@lru_cache(maxsize=None)
def _profile(model, gap_stride):
    # A variant keeps its model's name but not its dispatch gaps, so
    # it has a profile of its own.
    return OfflineProfiler().profile(_base_app(model, gap_stride))


def _progress(spec, app_id, config):
    """A fresh oracle view of one drawn app description."""
    model, quota, arrival, start, t_ref_factor, gap_stride = spec
    app = _base_app(model, gap_stride).with_quota(quota, app_id=app_id)
    profile = _profile(model, gap_stride)
    partition = config.nearest_partition(quota)
    t_ref = profile.iso_latency(partition) * t_ref_factor
    request = Request(app=app, arrival_time=arrival)
    request.next_kernel = min(app.num_kernels, int(start * app.num_kernels))
    return OracleProgress(
        request=request,
        profile=profile,
        partition=partition,
        t_ref_us=t_ref,
    )


def _compose_both(specs, now, config):
    """Run both generators on twin request sets; return comparable views."""
    views = []
    for generate in (reference_generate_squad, generate_squad):
        progresses = [
            _progress(spec, f"app{i}", config) for i, spec in enumerate(specs)
        ]
        if generate is generate_squad:
            progresses = [p.production() for p in progresses]
        squad = generate(progresses, now, config)
        views.append(
            (
                [(a, e.request.app.app_id, e.kernel_indices)
                 for a, e in squad.entries.items()],
                [p.request.next_kernel for p in progresses],
            )
        )
    return views


app_specs = st.tuples(
    st.sampled_from(MODEL_NAMES),
    st.floats(min_value=0.05, max_value=1.0),                 # quota
    st.floats(min_value=0.0, max_value=30_000.0),              # arrival
    st.floats(min_value=0.0, max_value=1.0),                   # start fraction
    st.sampled_from([1.0, 0.5, 2.0, 3.5]),                     # T_ref factor
    st.one_of(st.none(), st.integers(min_value=1, max_value=12)),  # gap stride
)


class TestPlanMatchesOracle:
    """The plan's list reads equal the per-call formulas exactly."""

    @settings(max_examples=120, deadline=None)
    @given(
        spec=app_specs,
        now_offset=st.floats(min_value=-5_000.0, max_value=60_000.0),
    )
    def test_urgency_at_every_k(self, spec, now_offset):
        oracle = _progress(spec, "app0", BlessConfig())
        progress = oracle.production()
        plan = progress.plan
        request = oracle.request
        now = request.arrival_time + now_offset
        for k in range(request.total_kernels + 1):
            request.next_kernel = k
            assert progress.urgency(now) == oracle.urgency(now)
            assert plan.tau_us[k] == oracle.tau_scheduled()
            assert progress.relative_progress(now) == oracle.relative_progress(now)
        profile = oracle.profile
        full = profile.num_partitions
        assert plan.solo_step_us == [
            profile.step_cost(full, k) for k in range(request.total_kernels)
        ]

    def test_plan_rejects_nonpositive_reference(self):
        profile = _profile("R50", None)
        with pytest.raises(ValueError):
            AppPlan(profile, 9, 0.0)


class TestMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(
        specs=st.lists(app_specs, min_size=1, max_size=6),
        now_offset=st.floats(min_value=0.0, max_value=60_000.0),
        cap=st.integers(min_value=1, max_value=80),
        multitask=st.booleans(),
        solo_fraction=st.floats(min_value=0.05, max_value=1.0),
        solo_budget=st.floats(min_value=10.0, max_value=5_000.0),
    )
    def test_identical_squads(
        self, specs, now_offset, cap, multitask, solo_fraction, solo_budget,
    ):
        config = BlessConfig(
            max_kernels_per_squad=cap,
            use_multitask_scheduler=multitask,
            solo_squad_fraction=solo_fraction,
            solo_squad_budget_us=solo_budget,
        )
        now = max(spec[2] for spec in specs) + now_offset
        reference, incremental = _compose_both(specs, now, config)
        assert incremental == reference

    def test_exact_tie_interleaves(self):
        # Identical apps arriving at the same instant tie on urgency;
        # the quota-share tie-break alternates them, first app first.
        spec = ("R50", 0.5, 0.0, 0.0, 1.0, None)
        config = BlessConfig(max_kernels_per_squad=10)
        reference, incremental = _compose_both([spec, spec], 10.0, config)
        assert incremental == reference
        entries, next_kernels = incremental
        assert entries == [
            ("app0", "app0", [0, 1, 2, 3, 4]),
            ("app1", "app1", [0, 1, 2, 3, 4]),
        ]
        assert next_kernels == [5, 5]

    def test_solo_budget_and_cap(self):
        config = BlessConfig(
            max_kernels_per_squad=40, solo_squad_fraction=0.5,
            solo_squad_budget_us=200.0,
        )
        spec = ("BERT", 1.0, 0.0, 0.0, 1.0, None)
        reference, incremental = _compose_both([spec], 500.0, config)
        assert incremental == reference
        assert 0 < len(incremental[0][0][2]) < 20

    def test_other_trace_and_round_robin(self):
        specs = [
            ("NAS", 0.3, 0.0, 0.2, 1.0, 4),
            ("VGG", 0.7, 100.0, 0.0, 1.0, None),
        ]
        for multitask in (True, False):
            config = BlessConfig(use_multitask_scheduler=multitask)
            reference, incremental = _compose_both(specs, 5_000.0, config)
            assert incremental == reference


def test_urgency_evaluations_linear(monkeypatch):
    """A squad costs at most N + picks key evaluations, not N x picks."""
    calls = []
    original = RequestProgress.urgency

    def counting(self, now):
        calls.append(self.request.app.app_id)
        return original(self, now)

    monkeypatch.setattr(RequestProgress, "urgency", counting)
    config = BlessConfig()
    specs = [
        (model, 0.25, 0.0, 0.0, 1.0, None)
        for model in ("R50", "R101", "NAS", "BERT")
    ]
    progresses = [
        _progress(spec, f"app{i}", config).production()
        for i, spec in enumerate(specs)
    ]
    squad = generate_squad(progresses, 3_000.0, config)
    picks = squad.total_kernels
    assert picks == config.max_kernels_per_squad
    assert squad.num_requests > 1
    assert len(calls) <= len(progresses) + picks

    # A request alone is picked whatever its key, so none is computed.
    calls.clear()
    assert generate_squad(progresses[:1], 3_000.0, config).total_kernels > 0
    assert calls == []
