"""Regression tests for ``ServingResult.merge`` and percentile edges.

Pins the epoch-chaining fixes: merged percentiles must equal the
percentiles of the concatenated (offset-shifted) records even when the
sub-results have unequal record counts, and a sequential epoch chain
must not dilute utilization by counting each epoch's GPUs as distinct
hardware.  Also covers the percentile edge cases (single sample,
all-identical latencies, target exactly met), the order-independence
of per-class attainment, and the declared ``extras`` merge rules: averages
and peaks must not be summed across GPUs, partitions or epochs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.gslice import GSLICESystem
from repro.baselines.iso import ISOSystem
from repro.cluster import ClusterController, OnlineClusterController, PlacementPolicy
from repro.experiments.cluster_scale import churn_schedule
from repro.gateway.slo import BEST_EFFORT, LATENCY_CRITICAL
from repro.metrics.stats import (
    RequestRecord,
    ServingResult,
    qos_violation_rate,
)
from repro.workloads.suite import bind_load, multi_app_mix, symmetric_pair


def make_result(latencies, app_id="app", makespan=None, utilization=1.0,
                start=0.0):
    result = ServingResult(system="TEST")
    finish_max = start
    for index, latency in enumerate(latencies):
        arrival = start + index * 10.0
        finish = arrival + latency
        finish_max = max(finish_max, finish)
        result.add(
            RequestRecord(
                app_id=app_id,
                request_id=index,
                arrival=arrival,
                finish=finish,
            )
        )
    result.makespan_us = (
        makespan if makespan is not None else finish_max - start
    )
    result.utilization = utilization
    return result


class TestMergePercentiles:
    def test_merged_p99_equals_concatenated_with_unequal_counts(self):
        """The satellite-1 regression: two epochs with very different
        record counts, chained with offsets — the merged p99 must be
        the p99 of the full concatenated latency list, not of any
        per-epoch aggregate."""
        first = make_result([10.0, 20.0, 30.0])
        second = make_result([5.0] * 17)
        merged = ServingResult.merge(
            [first, second],
            num_slots=1,
            offsets=[0.0, first.makespan_us],
        )
        concatenated = first.latencies() + second.latencies()
        for q in (50, 90, 99):
            assert merged.percentile_latency(q) == pytest.approx(
                float(np.percentile(concatenated, q))
            )
        # Offsets shift timestamps, never latencies.
        assert sorted(merged.latencies()) == sorted(concatenated)

    def test_offsets_shift_records_and_extend_makespan(self):
        first = make_result([10.0], makespan=100.0)
        second = make_result([10.0], makespan=50.0)
        merged = ServingResult.merge(
            [first, second], num_slots=1, offsets=[0.0, 100.0]
        )
        assert merged.makespan_us == 150.0
        assert merged.records[1].arrival == 100.0
        assert merged.records[1].finish == 110.0


class TestMergeSlotDefaults:
    def test_explicit_num_slots_wins(self):
        epochs = [
            make_result([10.0], makespan=100.0, utilization=1.0),
            make_result([10.0], makespan=100.0, utilization=1.0),
        ]
        merged = ServingResult.merge(
            epochs, offsets=[0.0, 100.0], num_slots=2
        )
        assert merged.utilization == pytest.approx(0.5)

    def test_epoch_chain_with_weights_uses_widest_epoch(self):
        epochs = [
            make_result([10.0], makespan=100.0, utilization=1.0),
            make_result([10.0], makespan=100.0, utilization=1.0),
        ]
        merged = ServingResult.merge(
            epochs, num_slots=2, weights=[2.0, 2.0], offsets=[0.0, 100.0]
        )
        # Sequential epochs reuse the same GPUs, so the caller passes
        # the widest epoch, not the epoch total (the epoch-chaining
        # denominator bug): busy = 2 epochs x 100 us x 2 GPUs;
        # capacity = 200 us x 2 GPUs.
        assert merged.utilization == pytest.approx(1.0)


def with_extras(**extras):
    result = make_result([10.0])
    result.extras = dict(extras)
    return result


def squad_weighted(results):
    squads = sum(r.extras["squads"] for r in results)
    return sum(r.extras["kernels_per_squad"] * r.extras["squads"] for r in results) / squads


class TestMergeRules:
    def test_declared_rules(self):
        merged = ServingResult.merge([
            with_extras(squads=3.0, kernels_per_squad=10.0, engine_peak_heap_size=4.0,
                        engine_epoch_max_batch=2.0, peak_context_memory_mb=900.0,
                        config_cache_hits=3.0, config_cache_misses=1.0,
                        config_cache_hit_rate=0.75),
            with_extras(squads=1.0, kernels_per_squad=30.0, engine_peak_heap_size=7.0,
                        engine_epoch_max_batch=1.0, peak_context_memory_mb=500.0,
                        config_cache_hits=1.0, config_cache_misses=3.0,
                        config_cache_hit_rate=0.25, fault_shed_requests=2.0),
        ], num_slots=2).extras
        assert merged["squads"] == 4.0 and merged["fault_shed_requests"] == 2.0
        assert merged["kernels_per_squad"] == pytest.approx(15.0)
        assert merged["engine_peak_heap_size"] == 7.0
        assert merged["engine_epoch_max_batch"] == 2.0
        assert merged["peak_context_memory_mb"] == 900.0
        assert merged["config_cache_hit_rate"] == pytest.approx(0.5)

    def test_key_one_result_carries_passes_through_bit_for_bit(self):
        merged = ServingResult.merge([
            with_extras(squads=1.0),
            with_extras(squads=2.0, context_memory_mb=-0.0, kernels_per_squad=0.1 + 0.2),
        ], num_slots=2).extras
        assert math.copysign(1.0, merged["context_memory_mb"]) == -1.0
        assert merged["kernels_per_squad"] == 0.1 + 0.2

    def test_cluster_kernels_per_squad_is_squad_weighted(self):
        """Two GPUs at 17.375 (72 squads) and 13.647 (51 squads) merge to
        15.83, not to their sum."""
        result = ClusterController(num_gpus=2, policy=PlacementPolicy.WORST_FIT).serve(
            bind_load(multi_app_mix(4), "C", requests=3)
        )
        per_gpu = list(result.per_gpu.values())
        assert len(per_gpu) == 2
        assert result.merged.extras["kernels_per_squad"] == pytest.approx(
            squad_weighted(per_gpu)
        )
        assert result.merged.extras["kernels_per_squad"] == pytest.approx(15.83, abs=0.01)

    def test_iso_peaks_are_not_summed(self):
        bindings = bind_load(symmetric_pair("R50"), "A", requests=3)
        merged = ISOSystem().serve(bindings).extras
        solo = [GSLICESystem().serve([binding]).extras for binding in bindings]
        for key in ("engine_peak_heap_size", "engine_epoch_max_batch"):
            assert merged[key] == max(extras[key] for extras in solo)

    def test_churn_epoch_chain_keeps_averages_and_peaks(self):
        result = OnlineClusterController(
            num_gpus=8, policy=PlacementPolicy("best_fit"), migrate=True
        ).serve(churn_schedule(8, requests=2), jobs=1)
        epochs = [e for e in result.per_epoch if "kernels_per_squad" in e.extras]
        assert len(epochs) > 1
        merged = result.merged.extras
        assert merged["kernels_per_squad"] == pytest.approx(squad_weighted(epochs))
        assert merged["kernels_per_squad"] < 100.0
        for key in ("peak_context_memory_mb", "engine_peak_heap_size"):
            assert merged[key] == max(e.extras[key] for e in result.per_epoch)


class TestPercentileEdges:
    def test_single_sample(self):
        result = make_result([42.0])
        for q in (0, 50, 99, 100):
            assert result.percentile_latency(q) == 42.0

    def test_all_identical(self):
        result = make_result([7.0] * 9)
        for q in (1, 50, 99):
            assert result.percentile_latency(q) == 7.0

    def test_empty_is_nan(self):
        result = ServingResult(system="TEST")
        assert np.isnan(result.percentile_latency(99))

    def test_qos_target_exactly_met_is_not_a_violation(self):
        result = make_result([100.0, 100.0])
        assert qos_violation_rate(result, {"app": 100.0}) == 0.0
        assert qos_violation_rate(result, {"app": 99.0}) == 1.0


def attainment_by_class(records, deadline_of, class_of):
    """Per-class deadline attainment over a record list — the same
    tally the gateway keeps incrementally, recomputed from scratch."""
    hits = {}
    totals = {}
    for record in records:
        cls = class_of[record.app_id]
        totals[cls] = totals.get(cls, 0) + 1
        if record.finish <= deadline_of[(record.app_id, record.request_id)]:
            hits[cls] = hits.get(cls, 0) + 1
    return {
        cls: hits.get(cls, 0) / total for cls, total in totals.items()
    }


@settings(max_examples=50, deadline=None)
@given(
    latencies=st.lists(
        st.tuples(
            st.sampled_from(["lc-app", "be-app"]),
            st.floats(min_value=0.0, max_value=1000.0,
                      allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=40,
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_attainment_order_independent(latencies, seed):
    """Shuffling the record list never changes per-class attainment —
    the property that lets cluster merges concatenate sub-results in
    any deterministic order without re-sorting."""
    class_of = {"lc-app": LATENCY_CRITICAL, "be-app": BEST_EFFORT}
    records = []
    deadline_of = {}
    for index, (app_id, latency) in enumerate(latencies):
        arrival = float(index)
        records.append(
            RequestRecord(
                app_id=app_id,
                request_id=index,
                arrival=arrival,
                finish=arrival + latency,
            )
        )
        deadline_of[(app_id, index)] = arrival + 500.0
    baseline = attainment_by_class(records, deadline_of, class_of)
    shuffled = list(records)
    np.random.default_rng(seed).shuffle(shuffled)
    assert attainment_by_class(shuffled, deadline_of, class_of) == baseline
