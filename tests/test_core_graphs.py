"""Tests for CUDA-graph scheduling granularity (§6.10)."""

import pytest

from repro.apps.models import inference_app
from repro.baselines.iso import solo_latency_us
from repro.core.config import BlessConfig
from repro.core.graphs import graph_boundaries_for, graph_end, with_cuda_graphs
from repro.core.profiler import OfflineProfiler
from repro.core.progress import AppPlan, RequestProgress
from repro.core.runtime import BlessRuntime
from repro.core.squad import generate_squad
from repro.apps.application import Request
from repro.workloads.arrivals import OneShot
from repro.workloads.suite import WorkloadBinding, bind_load


class TestGraphConstruction:
    def test_boundaries_chunk_compute_kernels(self):
        app = inference_app("VGG")
        boundaries = graph_boundaries_for(app, graph_size=8)
        assert boundaries[0] == 0
        assert boundaries == sorted(set(boundaries))

    def test_memcpys_break_graphs(self):
        app = inference_app("VGG")
        boundaries = set(graph_boundaries_for(app, graph_size=1000))
        # H2D at index 0 and D2H at the end are their own units.
        assert 0 in boundaries
        assert len(app.kernels) - 1 in boundaries

    def test_invalid_graph_size(self):
        with pytest.raises(ValueError):
            graph_boundaries_for(inference_app("VGG"), 0)

    def test_graph_app_removes_intra_graph_gaps(self):
        app = inference_app("R50")
        graphed = with_cuda_graphs(app, graph_size=10)
        assert graphed.total_gap_us < app.total_gap_us
        assert graphed.num_compute_kernels == app.num_compute_kernels
        assert graphed.graph_boundaries is not None

    def test_graph_app_is_faster_solo(self):
        """CUDA graphs' raison d'être: fewer host stalls per request."""
        app = inference_app("BERT")
        graphed = with_cuda_graphs(app, graph_size=20)
        assert solo_latency_us(graphed) < solo_latency_us(app)

    def test_with_quota_preserves_boundaries(self):
        graphed = with_cuda_graphs(inference_app("VGG"), 5)
        copy = graphed.with_quota(0.5, app_id="x")
        assert copy.graph_boundaries == graphed.graph_boundaries

    def test_graph_end_lookup(self):
        assert graph_end([0, 4, 8], 0, 12) == 4
        assert graph_end([0, 4, 8], 5, 12) == 8
        assert graph_end([0, 4, 8], 9, 12) == 12


class TestGraphScheduling:
    def _progress(self, app, quota=0.5):
        profile = OfflineProfiler().profile(app)
        config = BlessConfig()
        partition = config.nearest_partition(quota)
        return RequestProgress(
            Request(app=app.with_quota(quota, app_id=app.app_id), arrival_time=0.0),
            AppPlan(profile, partition, profile.iso_latency(partition)),
        )

    def test_squads_align_to_graph_boundaries(self):
        app = with_cuda_graphs(inference_app("R50"), graph_size=7)
        progress = self._progress(app)
        config = BlessConfig(max_kernels_per_squad=10)
        generate_squad([progress], now=100.0, config=config)
        # next_kernel must sit on a graph boundary (or the end).
        boundaries = set(app.graph_boundaries) | {len(app.kernels)}
        assert progress.request.next_kernel in boundaries

    def test_graph_takes_may_exceed_kernel_cap(self):
        """Graphs are indivisible: a squad may overshoot the cap by
        less than one graph (the paper's granularity trade-off)."""
        app = with_cuda_graphs(inference_app("R50"), graph_size=25)
        progress = self._progress(app)
        config = BlessConfig(max_kernels_per_squad=4, solo_squad_fraction=1.0)
        squad = generate_squad([progress], now=100.0, config=config)
        assert squad.total_kernels >= 4

    def test_end_to_end_graph_serving(self):
        apps = [
            with_cuda_graphs(inference_app("R50"), 10).with_quota(0.5, app_id="g1"),
            with_cuda_graphs(inference_app("R50"), 10).with_quota(0.5, app_id="g2"),
        ]
        result = BlessRuntime().serve(bind_load(apps, "C", requests=3))
        assert result.count() == 6
        assert all(r.latency > 0 for r in result.records)

    def test_graph_and_kernel_apps_co_locate(self):
        apps = [
            with_cuda_graphs(inference_app("VGG"), 6).with_quota(0.5, app_id="graphed"),
            inference_app("R50").with_quota(0.5, app_id="plain"),
        ]
        result = BlessRuntime().serve(
            [WorkloadBinding(app=a, process_factory=OneShot) for a in apps]
        )
        assert result.count() == 2
