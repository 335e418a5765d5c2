"""Second property-based suite: I/O, arrivals, placement."""

from hypothesis import given, settings, strategies as st

import pytest

from repro.cluster.placement import ClusterPlacer, PlacementError, PlacementPolicy
from repro.metrics.io import result_from_dict, result_to_dict
from repro.metrics.stats import RequestRecord, ServingResult
from repro.workloads.arrivals import ClosedLoop, TraceReplay


records_strategy = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c"]),
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=0.0, max_value=1e6),
    ),
    max_size=30,
)


class TestResultIOProperties:
    @given(
        records=records_strategy,
        utilization=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_roundtrip_is_identity(self, records, utilization):
        result = ServingResult(system="S", utilization=utilization)
        for index, (app_id, arrival, extra) in enumerate(records):
            result.add(
                RequestRecord(
                    app_id=app_id, request_id=index,
                    arrival=arrival, finish=arrival + extra,
                )
            )
        result.makespan_us = max(
            (r.finish for r in result.records), default=0.0
        )
        loaded = result_from_dict(result_to_dict(result))
        assert loaded.system == result.system
        assert loaded.count() == result.count()
        assert loaded.utilization == pytest.approx(result.utilization)
        for original, copy in zip(result.records, loaded.records):
            assert copy.latency == pytest.approx(original.latency)


class TestArrivalProperties:
    @given(
        interval=st.floats(min_value=0.0, max_value=1e5),
        jitter=st.floats(min_value=0.0, max_value=0.9),
        services=st.lists(
            st.floats(min_value=0.0, max_value=1e5), min_size=1, max_size=20
        ),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_closed_loop_arrivals_monotone(self, interval, jitter, services, seed):
        process = ClosedLoop(
            interval_us=interval, max_requests=len(services) + 1,
            jitter=jitter, seed=seed,
        )
        time = process.first_arrival()
        assert time == 0.0
        for service in services:
            completion = time + service
            nxt = process.next_arrival(time, completion)
            if nxt is None:
                break
            # Never before the previous completion.
            assert nxt >= completion - 1e-9
            time = nxt

    @given(
        gaps=st.lists(
            st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=20
        )
    )
    def test_trace_replay_emits_exactly_its_times(self, gaps):
        times = []
        acc = 0.0
        for gap in gaps:
            acc += gap
            times.append(acc)
        process = TraceReplay(times_us=list(times))
        emitted = []
        time = process.first_arrival()
        while time is not None:
            emitted.append(time)
            time = process.next_arrival(time, time + 1e9)
        assert emitted == pytest.approx(times)


class TestPlacementProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        quotas=st.lists(
            st.floats(min_value=0.05, max_value=1.0), min_size=1, max_size=8
        ),
        gpus=st.integers(min_value=1, max_value=4),
        policy=st.sampled_from(list(PlacementPolicy)),
    )
    def test_placements_never_violate_capacity(self, quotas, gpus, policy):
        from repro.apps.models import inference_app

        placer = ClusterPlacer(num_gpus=gpus, policy=policy)
        apps = [
            inference_app("VGG").with_quota(q, app_id=f"app{i}")
            for i, q in enumerate(quotas)
        ]
        try:
            placer.place_all(apps)
        except PlacementError:
            pass  # infeasible inputs are allowed to be rejected
        for slot in placer.slots:
            assert slot.quota_used <= 1.0 + 1e-9
            assert slot.memory_used_mb <= slot.spec.memory_mb
