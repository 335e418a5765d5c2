"""Tests for the experiment-harness helpers (common + squadlab)."""

import pytest

from repro.apps.models import inference_app
from repro.experiments.common import (
    INFERENCE_SYSTEMS,
    TRAINING_SYSTEMS,
    format_table,
    mean_latency_ms,
    serve_all,
)
from repro.experiments.squadlab import (
    best_partitions,
    build_squad,
    measure_sequential,
    measure_squad,
    profiles_for,
)
from repro.metrics.stats import RequestRecord, ServingResult
from repro.workloads.suite import bind_load, symmetric_pair


class TestCommon:
    def test_system_registries_complete(self):
        assert set(INFERENCE_SYSTEMS) == {
            "ISO", "TEMPORAL", "MIG", "GSLICE", "UNBOUND", "REEF+", "BLESS",
        }
        assert "ZICO" in TRAINING_SYSTEMS
        assert "GSLICE" not in TRAINING_SYSTEMS  # inference-only (§6.3)

    def test_serve_all_runs_each_system(self):
        apps = symmetric_pair("VGG")
        chosen = {"GSLICE": INFERENCE_SYSTEMS["GSLICE"], "BLESS": INFERENCE_SYSTEMS["BLESS"]}
        results = serve_all(lambda: bind_load(apps, "C", requests=2), systems=chosen)
        assert set(results) == {"GSLICE", "BLESS"}
        for result in results.values():
            assert result.count() == 4

    def test_mean_latency_ms(self):
        result = ServingResult(system="X")
        result.add(RequestRecord("a", 0, 0.0, 5000.0))
        assert mean_latency_ms(result) == pytest.approx(5.0)

    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["xxx", "y"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "xxx" in lines[3]
        # Columns separated and padded.
        assert lines[1].startswith("a  ")

    def test_format_table_ragged_rows(self):
        # Short rows pad with blanks; long rows grow blank-headed
        # columns — heterogeneous dict renderers must never crash.
        text = format_table(
            ["a", "b"], [["x"], ["long-cell", "y", "extra"], []]
        )
        lines = text.splitlines()
        assert len(lines) == 5  # header + rule + 3 rows
        assert "extra" in lines[3]
        # Every line padded to the same grid width.
        assert len({len(line) for line in lines}) == 1

    def test_format_table_empty(self):
        assert format_table([], []) == "\n"


class TestSquadLab:
    def test_build_and_measure_squad(self):
        windows = {
            "a": (inference_app("VGG"), 0, 6),
            "b": (inference_app("R50"), 0, 6),
        }
        squad = build_squad(windows)
        assert squad.total_kernels == 12
        duration = measure_squad(squad, None)
        assert duration > 0

    def test_sp_measurement_uses_partitions(self):
        windows = {
            "a": (inference_app("R50"), 0, 10),
            "b": (inference_app("R50"), 0, 10),
        }
        nsp = measure_squad(build_squad(windows), None)
        sp = measure_squad(build_squad(windows), {"a": 9, "b": 9}, split_ratio=1.0)
        assert sp > 0 and nsp > 0

    def test_sequential_slowest(self):
        windows = {
            "a": (inference_app("NAS"), 0, 15),
            "b": (inference_app("R50"), 0, 15),
        }
        seq = measure_sequential(build_squad(windows))
        profiles = profiles_for(windows)
        partitions = best_partitions(build_squad(windows), profiles)
        sp = measure_squad(build_squad(windows), partitions, split_ratio=1.0)
        assert sp < seq  # Fig. 17's headline relation

    def test_best_partitions_sum_to_n(self):
        windows = {
            "a": (inference_app("VGG"), 0, 8),
            "b": (inference_app("BERT"), 0, 8),
        }
        partitions = best_partitions(build_squad(windows), profiles_for(windows))
        assert sum(partitions.values()) == 18
        assert all(v >= 1 for v in partitions.values())
