"""Tests for the terminal visualisation helpers."""

import pytest

from repro.apps.models import inference_app
from repro.core.runtime import BlessRuntime
from repro.gpusim.engine import TimelineSegment
from repro.viz.charts import bar_chart, reduction_table, scatter
from repro.viz.timeline import bucketise, render_timeline
from repro.workloads.arrivals import OneShot
from repro.workloads.suite import WorkloadBinding


def segment(start, end, running):
    return TimelineSegment(start=start, end=end, running=running)


class TestBucketise:
    def test_full_busy_single_app(self):
        timeline = [segment(0.0, 100.0, {1: ("a", 1.0, 1.0)})]
        per_app, total = bucketise(timeline, 0.0, 100.0, 10)
        assert per_app["a"] == pytest.approx([1.0] * 10)
        assert total == pytest.approx([1.0] * 10)

    def test_half_window_busy(self):
        timeline = [segment(0.0, 50.0, {1: ("a", 1.0, 1.0)})]
        _, total = bucketise(timeline, 0.0, 100.0, 10)
        assert total[:5] == pytest.approx([1.0] * 5)
        assert total[5:] == pytest.approx([0.0] * 5)

    def test_two_apps_share_buckets(self):
        timeline = [segment(0.0, 10.0, {1: ("a", 0.5, 1.0), 2: ("b", 0.5, 1.0)})]
        per_app, total = bucketise(timeline, 0.0, 10.0, 2)
        assert per_app["a"] == pytest.approx([0.5, 0.5])
        assert total == pytest.approx([1.0, 1.0])

    def test_partial_bucket_overlap_weighted(self):
        timeline = [segment(0.0, 5.0, {1: ("a", 1.0, 1.0)})]
        _, total = bucketise(timeline, 0.0, 10.0, 1)
        assert total == pytest.approx([0.5])

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            bucketise([], 10.0, 10.0, 4)
        with pytest.raises(ValueError):
            bucketise([], 0.0, 10.0, 0)


class TestRenderTimeline:
    def test_empty_timeline_rejected(self):
        with pytest.raises(ValueError):
            render_timeline([])

    def test_render_has_lane_per_app(self):
        timeline = [
            segment(0.0, 50.0, {1: ("a", 1.0, 1.0)}),
            segment(50.0, 100.0, {2: ("b", 0.4, 1.0)}),
        ]
        view = render_timeline(timeline, width=20)
        text = view.render()
        assert "a |" in text and "b |" in text and "GPU total" in text
        assert len(view.lanes["a"]) == 20

    def test_end_to_end_with_real_run(self):
        """Render the timeline of an actual BLESS serving run."""
        apps = [
            inference_app("VGG").with_quota(0.5, app_id="vgg"),
            inference_app("R50").with_quota(0.5, app_id="r50"),
        ]
        system = BlessRuntime(record_timeline=True)
        system.serve(
            [WorkloadBinding(app=a, process_factory=OneShot) for a in apps]
        )
        view = render_timeline(system.engine.timeline, width=60)
        text = view.render()
        assert "vgg" in text and "r50" in text
        # Both apps actually occupied the GPU at some point.
        assert any(c != " " for c in view.lanes["vgg"])
        assert any(c != " " for c in view.lanes["r50"])


class TestCharts:
    def test_bar_chart_renders_all_rows(self):
        text = bar_chart({"BLESS": 10.0, "GSLICE": 14.0}, highlight="BLESS")
        assert "BLESS" in text and "GSLICE" in text and "◄" in text

    def test_bar_chart_rejects_empty(self):
        with pytest.raises(ValueError):
            bar_chart({})
        with pytest.raises(ValueError):
            bar_chart({"a": 0.0})

    def test_scatter_plots_points(self):
        text = scatter([(1.0, 2.0, "x"), (3.0, 1.0, "o")], width=20, height=8)
        assert "x" in text and "o" in text

    def test_scatter_rejects_empty(self):
        with pytest.raises(ValueError):
            scatter([])

    def test_reduction_table(self):
        text = reduction_table({"BLESS": 8.0, "GSLICE": 10.0, "TEMPORAL": 16.0})
        assert "+20.0%" in text
        assert "+50.0%" in text
        with pytest.raises(KeyError):
            reduction_table({"GSLICE": 10.0})
