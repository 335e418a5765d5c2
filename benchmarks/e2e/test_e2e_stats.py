"""The reporting rules of the end-to-end benchmark (no simulation runs)."""

import json
import statistics
from pathlib import Path

import pytest

import compare
import run
import stats
from workloads import WORKLOADS

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


class TestTailPercentile:
    @pytest.mark.parametrize("n", [20, 21, 28, 68, 84, 100, 204, 999])
    def test_exactly_ten_samples_beyond(self, n):
        values = list(range(1, n + 1))
        tail = stats.nearest_rank(values, stats.tail_percentile(n))
        assert sum(1 for v in values if v > tail) == stats.TAIL_MIN_BEYOND

    def test_highest_such_percentile(self):
        # Any higher rank would leave fewer than ten samples beyond it.
        assert stats.tail_percentile(100) == 90.0
        assert stats.tail_percentile(20) == 50.0
        assert stats.tail_percentile(28) == pytest.approx(64.2857, abs=1e-4)

    def test_not_reported_below_twenty_samples(self):
        assert stats.tail_percentile(19) is None

    def test_fixed_percentile_on_a_larger_pool(self):
        # run.py fixes the percentile from three reps' cells; a pool with
        # more reps keeps at least ten samples beyond it.
        percentile = stats.tail_percentile(3 * 24)
        values = list(range(5 * 24))
        tail = stats.nearest_rank(values, percentile)
        assert sum(1 for v in values if v > tail) >= 10

    def test_nearest_rank_rejects_empty(self):
        with pytest.raises(ValueError):
            stats.nearest_rank([], 50.0)


def test_quartiles_match_statistics():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    q1, median, q3 = stats.quartiles(values)
    assert stats.relative_spread(values) == pytest.approx((q3 - q1) / median)
    assert stats.relative_spread([7.0]) == 0.0


class TestPoolEfficiency:
    def test_fully_busy_pool(self):
        assert stats.pool_efficiency([1.0, 1.0, 2.0], jobs=2, grid_wall_s=2.0) == 1.0

    def test_idle_worker_halves_it(self):
        assert stats.pool_efficiency([2.0], jobs=2, grid_wall_s=2.0) == 0.5

    @pytest.mark.parametrize("jobs, wall", [(0, 1.0), (2, 0.0)])
    def test_rejects_degenerate_inputs(self, jobs, wall):
        with pytest.raises(ValueError):
            stats.pool_efficiency([1.0], jobs=jobs, grid_wall_s=wall)


class TestCountFailures:
    ok = {"key": "a", "metrics": {}, "error": None}
    bad = {"key": "b", "metrics": {}, "error": "fault accounting: ..."}

    def test_clean_reps(self):
        assert stats.count_failures([[self.ok] * 4, [self.ok] * 4], 4) == (8, 0)

    def test_failed_checks_count(self):
        assert stats.count_failures([[self.ok, self.bad, self.bad, self.ok]], 4) == (4, 2)

    def test_timed_out_rep_fails_every_unit(self):
        assert stats.count_failures([[self.ok] * 4, None], 4) == (8, 4)

    def test_missing_units_fail(self):
        assert stats.count_failures([[self.ok] * 3], 4) == (4, 1)

    def test_extra_units_are_attempted(self):
        assert stats.count_failures([[self.ok] * 5], 4) == (5, 0)


class TestCompareVerdict:
    base = [100.0, 101.0, 99.0, 100.5, 99.5]

    def test_within_bound_is_unchanged(self):
        change = [v * 0.95 for v in self.base]
        assert compare.verdict(self.base, change, "higher", 0.10)[0] == "unchanged"

    def test_past_bound_is_worse(self):
        change = [v * 1.2 for v in self.base]
        outcome, delta = compare.verdict(self.base, change, "lower", 0.10)
        assert outcome == "worse"
        assert delta == pytest.approx(0.2)

    def test_past_base_spread_is_better(self):
        change = [v * 1.05 for v in self.base]
        assert compare.verdict(self.base, change, "higher", 0.10)[0] == "better"

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0]
        assert compare.verdict(noisy, [v * 1.5 for v in noisy], "lower", 0.10)[0] == "unresolved"
        # ...unless every change run beats every base run.
        assert compare.verdict(noisy, [10.0, 11.0, 12.0], "lower", 0.10)[0] == "better"


def test_compare_reads_a_directory_of_per_workload_results(tmp_path):
    def result(workload, seed, value, digest):
        return {"seed": seed, "workloads": {workload: {
            "metrics": {"setup_s": {"value": value, "unit": "s"}},
            "sim": {}, "sim_digest": digest}}}

    base, change = tmp_path / "base", tmp_path / "change"
    for side, digest in ((base, "d"), (change, "d")):
        side.mkdir()
        for seed in range(3):
            for workload in ("zoo_cli", "cluster_churn"):
                (side / f"{workload}.{seed}.json").write_text(
                    json.dumps(result(workload, seed, 1.0 + seed / 100, digest)))
    runs = compare.load_side(base)
    assert sorted(runs) == ["cluster_churn", "zoo_cli"]
    assert compare.metric_values(runs["zoo_cli"], "setup_s") == [1.0, 1.01, 1.02]
    assert compare.main([str(base), str(change)]) == 0
    # A simulated output that differs at one seed fails the comparison.
    (change / "zoo_cli.1.json").write_text(json.dumps(result("zoo_cli", 1, 1.01, "other")))
    assert compare.main([str(base), str(change)]) == 1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_units_per_rep_matches_the_built_workload(name, tmp_path):
    # The parent counts a lost rep as units_per_rep failures without
    # building the workload, so the two counts must agree.
    workload = WORKLOADS[name]
    assert workload.prepare(0, True, tmp_path).units == workload.units_per_rep


def test_benchmark_json_matches_run_py():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
