"""Unit tests for the metrics package."""

import math

import pytest

from repro.analysis.bubbles import _merge_windows
from repro.metrics.deviation import latency_deviation_us
from repro.metrics.stats import RequestRecord, ServingResult, qos_violation_rate


def make_result(records):
    result = ServingResult(system="X")
    for app_id, arrival, finish in records:
        result.add(
            RequestRecord(app_id=app_id, request_id=0, arrival=arrival, finish=finish)
        )
    result.makespan_us = max((f for _, _, f in records), default=0.0)
    return result


class TestServingResult:
    def test_latency_computation(self):
        result = make_result([("a", 0.0, 10.0), ("a", 5.0, 25.0)])
        assert result.latencies("a") == [10.0, 20.0]
        assert result.mean_latency("a") == 15.0

    def test_mean_of_app_means_weights_apps_equally(self):
        result = make_result([("a", 0, 10), ("a", 0, 10), ("a", 0, 10), ("b", 0, 30)])
        # app a mean 10, app b mean 30 -> 20, not the record mean 15.
        assert result.mean_of_app_means() == 20.0

    def test_empty_result_is_nan(self):
        assert math.isnan(ServingResult(system="X").mean_of_app_means())

    def test_percentile(self):
        result = make_result([("a", 0, i) for i in range(1, 101)])
        assert result.percentile_latency(50) == pytest.approx(50.5)

    def test_throughput(self):
        result = make_result([("a", 0, 10.0), ("a", 10, 20.0)])
        result.makespan_us = 1_000_000.0  # one second
        assert result.throughput_qps("a") == pytest.approx(2.0)

    def test_app_ids_preserve_first_seen_order(self):
        result = make_result([("b", 0, 1), ("a", 0, 1), ("b", 1, 2)])
        assert result.app_ids == ["b", "a"]

    def test_count(self):
        result = make_result([("a", 0, 1), ("b", 0, 1)])
        assert result.count() == 2
        assert result.count("a") == 1


class TestQoSViolation:
    def test_counts_only_targeted_apps(self):
        result = make_result([("a", 0, 10.0), ("b", 0, 10.0)])
        assert qos_violation_rate(result, {"a": 5.0}) == 1.0
        assert qos_violation_rate(result, {"a": 15.0}) == 0.0

    def test_empty_targets(self):
        result = make_result([("a", 0, 10.0)])
        assert qos_violation_rate(result, {}) == 0.0

    def test_mixed(self):
        result = make_result([("a", 0, 10.0), ("a", 0, 30.0)])
        assert qos_violation_rate(result, {"a": 20.0}) == 0.5


class TestDeviation:
    def test_only_excess_counts(self):
        result = make_result([("a", 0, 10.0), ("b", 0, 10.0)])
        targets = {"a": 5.0, "b": 20.0}
        # a exceeds by 5; b beats its target (free).
        assert latency_deviation_us(result, targets) == pytest.approx(5.0)

    def test_zero_when_all_within_targets(self):
        result = make_result([("a", 0, 10.0)])
        assert latency_deviation_us(result, {"a": 100.0}) == 0.0

    def test_missing_target_raises(self):
        result = make_result([("a", 0, 10.0)])
        with pytest.raises(KeyError):
            latency_deviation_us(result, {})


class TestBubbles:
    def test_merge_windows(self):
        merged = _merge_windows([(0, 10), (5, 15), (20, 25), (24, 30)])
        assert merged == [(0, 15), (20, 30)]

    def test_merge_drops_empty(self):
        assert _merge_windows([(5, 5), (1, 2)]) == [(1, 2)]
