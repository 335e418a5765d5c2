"""Unit tests for arrival processes, traces, and the Table-2 suite."""

import pytest

from repro.apps.models import inference_app
from repro.workloads.arrivals import (
    ClosedLoop,
    OneShot,
    TraceReplay,
    drain_process,
)
from repro.workloads.suite import (
    LOAD_FACTORS,
    QUOTAS_2MODEL,
    QUOTAS_4MODEL,
    QUOTAS_8MODEL,
    bind_biased,
    bind_closed_loop,
    bind_continuous,
    bind_load,
    bind_trace,
    estimated_solo_us,
    multi_app_mix,
    mutual_pairs,
    symmetric_pair,
    training_pair,
)
from repro.workloads.traces import azure_trace, mean_interarrival, twitter_trace


class TestClosedLoop:
    def test_think_time_semantics(self):
        process = ClosedLoop(interval_us=100.0, max_requests=3)
        first = process.first_arrival()
        assert first == 0.0
        second = process.next_arrival(first, prev_completion=50.0)
        assert second == pytest.approx(150.0)

    def test_request_limit(self):
        process = ClosedLoop(interval_us=10.0, max_requests=2)
        t = process.first_arrival()
        t = process.next_arrival(t, t + 5)
        assert process.next_arrival(t, t + 5) is None

    def test_zero_requests(self):
        assert ClosedLoop(interval_us=10.0, max_requests=0).first_arrival() is None

    def test_jitter_bounds(self):
        process = ClosedLoop(interval_us=100.0, max_requests=50, jitter=0.2, seed=1)
        t = process.first_arrival()
        prev_completion = 0.0
        for _ in range(49):
            nxt = process.next_arrival(t, prev_completion)
            gap = nxt - prev_completion
            assert 80.0 <= gap <= 120.0
            t, prev_completion = nxt, nxt
        assert process.next_arrival(t, t) is None

    def test_jitter_deterministic_per_seed(self):
        def gaps(seed):
            p = ClosedLoop(interval_us=100.0, max_requests=5, jitter=0.3, seed=seed)
            t = p.first_arrival()
            out = []
            for _ in range(4):
                nxt = p.next_arrival(t, t)
                out.append(nxt - t)
                t = nxt
            return out

        assert gaps(3) == gaps(3)
        assert gaps(3) != gaps(4)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ClosedLoop(interval_us=-1.0, max_requests=1)
        with pytest.raises(ValueError):
            ClosedLoop(interval_us=1.0, max_requests=1, jitter=1.5)

    def test_drain_process_helper(self):
        arrivals = drain_process(ClosedLoop(interval_us=10.0, max_requests=3), 5.0)
        assert arrivals == [0.0, 15.0, 30.0]


class TestContinuous:
    def test_back_to_back(self):
        # bind_continuous is a closed loop with zero think time.
        app = inference_app("R50")
        process = bind_continuous([app], requests=3)[0].fresh_process()
        t = process.first_arrival()
        nxt = process.next_arrival(t, prev_completion=42.0)
        assert nxt == 42.0


class TestTraceReplay:
    def test_replays_timestamps(self):
        process = TraceReplay(times_us=[1.0, 5.0, 9.0])
        assert process.first_arrival() == 1.0
        assert process.next_arrival(1.0, 100.0) == 5.0  # ignores completion
        assert process.next_arrival(5.0, 100.0) == 9.0
        assert process.next_arrival(9.0, 100.0) is None

    def test_unsorted_trace_rejected(self):
        with pytest.raises(ValueError):
            TraceReplay(times_us=[5.0, 1.0])

    def test_empty_trace(self):
        assert TraceReplay(times_us=[]).first_arrival() is None


class TestOneShot:
    def test_fires_once(self):
        process = OneShot(at_us=7.0)
        assert process.first_arrival() == 7.0
        assert process.next_arrival(7.0, 10.0) is None

    def test_first_arrival_restarts(self):
        # first_arrival is a *restart* (Protocol contract): draining the
        # process and then rewinding yields the same sequence again.
        process = OneShot(at_us=7.0)
        assert process.first_arrival() == 7.0
        assert process.next_arrival(7.0, 10.0) is None
        assert process.first_arrival() == 7.0
        assert process.next_arrival(7.0, 10.0) is None


class TestTraces:
    def test_twitter_mean_interval(self):
        trace = twitter_trace(2_000_000.0, 10_000.0, seed=3)
        assert 6_000.0 < mean_interarrival(trace) < 16_000.0

    def test_azure_mean_interval_heavier(self):
        trace = azure_trace(5_000_000.0, 20_000.0, seed=3)
        assert len(trace) > 10
        assert trace == sorted(trace)

    def test_traces_deterministic(self):
        assert twitter_trace(1e6, 1e4, seed=5) == twitter_trace(1e6, 1e4, seed=5)
        assert azure_trace(1e6, 1e4, seed=5) == azure_trace(1e6, 1e4, seed=5)

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            twitter_trace(1e6, 0.0)
        with pytest.raises(ValueError):
            azure_trace(1e6, -1.0)

    def test_azure_is_bursty(self):
        """Heavy-tailed: max gap dwarfs the median gap."""
        import numpy as np

        trace = azure_trace(10_000_000.0, 20_000.0, seed=9)
        gaps = np.diff(np.asarray(trace))
        assert gaps.max() > 5 * np.median(gaps)


class TestSuite:
    def test_quota_menus_match_table2(self):
        assert len(QUOTAS_2MODEL) == 7
        for qa, qb in QUOTAS_2MODEL:
            assert qa + qb == pytest.approx(1.0)
        assert sum(QUOTAS_4MODEL) == pytest.approx(1.0)
        assert sum(QUOTAS_8MODEL) == pytest.approx(1.0)
        assert len(QUOTAS_8MODEL) == 8

    def test_load_factors(self):
        assert LOAD_FACTORS == {"A": 1 / 3, "B": 2 / 3, "C": 1.0}

    def test_bind_load_produces_fresh_processes(self):
        bindings = bind_load(symmetric_pair("VGG"), "C", requests=2)
        p1, p2 = bindings[0].fresh_process(), bindings[0].fresh_process()
        assert p1 is not p2
        assert p1.first_arrival() == p2.first_arrival()

    def test_bind_load_unknown_load(self):
        with pytest.raises(KeyError):
            bind_load(symmetric_pair("VGG"), "Z")

    def test_closed_loop_staggers_starts(self):
        bindings = bind_closed_loop(symmetric_pair("VGG"), factor=1.0, requests=2)
        starts = [b.fresh_process().first_arrival() for b in bindings]
        assert starts[0] != starts[1]

    def test_estimated_solo_matches_span(self):
        app = inference_app("R50")
        assert estimated_solo_us(app) == pytest.approx(app.solo_span_us + 3.0)

    def test_symmetric_pair_ids_distinct(self):
        a, b = symmetric_pair("BERT")
        assert a.app_id != b.app_id
        assert a.name == b.name

    def test_mutual_pairs_count(self):
        pairs = mutual_pairs()
        assert len(pairs) == 10
        assert all(a != b for a, b in pairs)

    def test_training_pair_even_quotas(self):
        a, b = training_pair("VGG", "R50")
        assert a.quota == b.quota == 0.5

    def test_multi_app_mix_sizes(self):
        assert len(multi_app_mix(4)) == 4
        assert len(multi_app_mix(8)) == 8
        with pytest.raises(ValueError):
            multi_app_mix(3)

    def test_multi_app_quota_totals(self):
        for count in (4, 8):
            assert sum(a.quota for a in multi_app_mix(count)) == pytest.approx(1.0)

    def test_bind_biased_quotas(self):
        bindings = bind_biased(inference_app("R50"), inference_app("VGG"))
        assert bindings[0].app.quota == pytest.approx(8 / 9)
        assert bindings[1].app.quota == pytest.approx(1 / 9)

    def test_bind_trace_kinds(self):
        apps = symmetric_pair("VGG")
        for kind in ("twitter", "azure"):
            bindings = bind_trace(apps, trace=kind, duration_intervals=5.0)
            process = bindings[0].fresh_process()
            assert process.first_arrival() is not None
        with pytest.raises(KeyError):
            bind_trace(apps, trace="bogus")

    def test_bind_continuous(self):
        bindings = bind_continuous(symmetric_pair("VGG"), requests=3)
        process = bindings[0].fresh_process()
        assert process.first_arrival() == 0.0
