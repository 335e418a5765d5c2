"""Tests for the CLI and the results-serialisation helpers."""

import json

import pytest

from repro.cli import main
from repro.metrics.io import (
    compare_results,
    load_result,
    load_results,
    result_from_dict,
    result_to_dict,
    save_result,
    save_results,
)
from repro.metrics.stats import RequestRecord, ServingResult


def make_result(system="X", latencies=(10.0, 20.0)):
    result = ServingResult(system=system, makespan_us=100.0, utilization=0.5)
    for index, latency in enumerate(latencies):
        result.add(
            RequestRecord(app_id="a", request_id=index, arrival=0.0, finish=latency)
        )
    result.extras["squads"] = 3.0
    return result


class TestResultIO:
    def test_roundtrip(self, tmp_path):
        original = make_result()
        path = tmp_path / "result.json"
        save_result(original, path)
        loaded = load_result(path)
        assert loaded.system == original.system
        assert loaded.mean_of_app_means() == original.mean_of_app_means()
        assert loaded.extras == original.extras
        assert loaded.utilization == original.utilization

    def test_list_roundtrip(self, tmp_path):
        path = tmp_path / "results.json"
        save_results([make_result("A"), make_result("B")], path)
        loaded = load_results(path)
        assert [r.system for r in loaded] == ["A", "B"]

    def test_bad_version_rejected(self):
        payload = result_to_dict(make_result())
        payload["format_version"] = 999
        with pytest.raises(ValueError):
            result_from_dict(payload)

    def test_non_list_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"not": "a list"}))
        with pytest.raises(ValueError):
            load_results(path)

    def test_compare_results(self):
        before = make_result(latencies=(10.0, 10.0))
        after = make_result(latencies=(5.0, 5.0))
        comparison = compare_results(before, after)
        assert comparison["a"] == pytest.approx(0.5)
        assert comparison["__overall__"] == pytest.approx(0.5)


class TestCLI:
    def test_experiments_listing(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "fig13_overall" in out

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "nope"]) == 2

    def test_serve_minimal(self, capsys, tmp_path):
        output = tmp_path / "run.json"
        code = main(
            [
                "serve", "--models", "VGG", "VGG", "--load", "C",
                "--requests", "2", "--systems", "GSLICE", "BLESS",
                "--output", str(output),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "GSLICE" in out and "BLESS" in out and "reduction" in out
        assert len(load_results(output)) == 2

    def test_serve_rejects_unknown_system(self, capsys):
        assert main(["serve", "--models", "VGG", "--systems", "NOPE"]) == 2

    def test_serve_rejects_mismatched_quotas(self):
        with pytest.raises(SystemExit):
            main(["serve", "--models", "VGG", "VGG", "--quotas", "0.5"])

    def test_profile(self, capsys):
        assert main(["profile", "VGG", "--partitions", "18", "9"]) == 0
        out = capsys.readouterr().out
        assert "T[n%]" in out and "VGG-inf" in out

    @pytest.mark.parametrize("partition", ["0", "-3", "19"])
    def test_profile_rejects_partition_outside_grid(self, capsys, partition):
        assert main(["profile", "R50", "--partitions", "18", partition]) == 2
        out = capsys.readouterr().out
        assert f"got {partition}" in out and "[1, 18]" in out
        assert "T[n%]" not in out

    def test_timeline(self, capsys):
        code = main(["timeline", "--models", "VGG", "R50", "--width", "40"])
        assert code == 0
        out = capsys.readouterr().out
        assert "GPU total" in out

    def test_sweep_quota_needs_two_models(self, capsys):
        assert main(["sweep-quota", "--models", "VGG"]) == 2
