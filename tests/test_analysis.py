"""Tests for the bubble taxonomy."""

import pytest

from repro.analysis import BubbleTaxonomy, analyze_run, compare_taxonomies
from repro.baselines.gslice import GSLICESystem
from repro.core.runtime import BlessRuntime
from repro.gpusim.engine import TimelineSegment
from repro.workloads.arrivals import OneShot
from repro.workloads.suite import WorkloadBinding, bind_load, symmetric_pair


def segment(start, end, busy_fraction, app="a"):
    return TimelineSegment(
        start=start, end=end, running={1: (app, busy_fraction, 1.0)}
    )


class TestTaxonomy:
    def test_fully_busy_run(self):
        timeline = [segment(0, 100, 1.0)]
        taxonomy = analyze_run(timeline, [(0, 100)], horizon_us=100)
        assert taxonomy.busy == pytest.approx(100.0)
        assert taxonomy.total_bubble == pytest.approx(0.0)
        assert taxonomy.vacant == pytest.approx(0.0)

    def test_intra_request_bubble(self):
        """Half-wide kernel running while a request is in flight."""
        timeline = [segment(0, 100, 0.5)]
        taxonomy = analyze_run(timeline, [(0, 100)], horizon_us=100)
        assert taxonomy.intra_request_bubble == pytest.approx(50.0)
        assert taxonomy.inter_request_bubble == pytest.approx(0.0)

    def test_inter_request_bubble(self):
        """GPU wholly idle mid-flight (e.g. a dispatch gap)."""
        timeline = [segment(0, 40, 1.0), segment(60, 100, 1.0)]
        taxonomy = analyze_run(timeline, [(0, 100)], horizon_us=100)
        assert taxonomy.inter_request_bubble == pytest.approx(20.0)
        assert taxonomy.busy == pytest.approx(80.0)

    def test_vacant_time_not_a_bubble(self):
        timeline = [segment(0, 50, 1.0)]
        taxonomy = analyze_run(timeline, [(0, 50)], horizon_us=200)
        assert taxonomy.vacant == pytest.approx(150.0)
        assert taxonomy.total_bubble == pytest.approx(0.0)
        assert taxonomy.bubble_ratio == pytest.approx(0.0)

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            analyze_run([], [], horizon_us=0.0)

    def test_render_and_compare(self):
        taxonomy = BubbleTaxonomy(100.0, 60.0, 20.0, 10.0, 10.0)
        assert "bubble ratio" in taxonomy.render()
        lines = compare_taxonomies({"X": taxonomy})
        assert any("X" in line for line in lines)

    def test_real_run_accounting_closes(self):
        """busy + bubbles + vacant ≈ horizon for a genuine run."""
        apps = symmetric_pair("VGG")
        system = GSLICESystem(record_timeline=True)
        system.serve(
            [WorkloadBinding(app=a, process_factory=OneShot) for a in apps]
        )
        horizon = system.engine.now
        taxonomy = analyze_run(
            system.engine.timeline, system.inflight_windows, horizon
        )
        accounted = (
            taxonomy.busy + taxonomy.total_bubble + taxonomy.vacant
        )
        assert accounted == pytest.approx(horizon, rel=0.05)

    def test_bless_squeezes_more_than_gslice(self):
        """BLESS's bubble ratio is lower on the same workload."""
        ratios = {}
        for name, system in (
            ("GSLICE", GSLICESystem(record_timeline=True)),
            ("BLESS", BlessRuntime(record_timeline=True)),
        ):
            apps = symmetric_pair("R50")
            system.serve(bind_load(apps, "C", requests=4))
            taxonomy = analyze_run(
                system.engine.timeline,
                system.inflight_windows,
                system.engine.now,
            )
            ratios[name] = taxonomy.bubble_ratio
        assert ratios["BLESS"] < ratios["GSLICE"]
