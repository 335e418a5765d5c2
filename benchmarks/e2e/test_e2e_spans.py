"""Span recording and self-time math of the traced benchmark run."""

from types import SimpleNamespace

import pytest

import spans
import stats

LAYER_OF = {
    "SimEngine.run": "gpusim.engine",
    "SimEngine.launch_batch": "gpusim.engine",
    "generate_squad": "core.squad",
    "determine": "core.configurator",
}


def test_self_time_of_nested_spans():
    # An engine run whose event callbacks compose a squad and search its
    # configuration; the search itself launches a batch on the engine.
    recorded = [
        ("SimEngine.run", 0.0, 10.0, -1),
        ("generate_squad", 1.0, 3.0, 0),
        ("determine", 4.0, 6.0, 0),
        ("SimEngine.launch_batch", 4.5, 5.0, 2),
    ]
    assert stats.self_times(recorded) == [6.0, 2.0, 1.5, 0.5]
    totals = stats.layer_totals(recorded, LAYER_OF)
    assert totals == {
        "gpusim.engine": (6.5, 2),
        "core.squad": (2.0, 1),
        "core.configurator": (1.5, 1),
    }
    # Self times partition the top-level span: coverage is exact.
    assert sum(seconds for seconds, _ in totals.values()) == 10.0


def test_recorder_nests_real_calls():
    recorder = spans.SpanRecorder()

    def inner():
        return 2

    def outer():
        return wrapped_inner() + wrapped_inner()

    wrapped_inner = recorder.wrap(inner, "inner", "core.squad")
    wrapped_outer = recorder.wrap(outer, "outer", "gpusim.engine")
    assert wrapped_outer() == 4
    names = [span[0] for span in recorder.spans]
    parents = [span[3] for span in recorder.spans]
    assert names == ["outer", "inner", "inner"]
    assert parents == [-1, 0, 0]
    own = stats.self_times(recorder.spans)
    outer_span = recorder.spans[0]
    assert sum(own) == pytest.approx(outer_span[2] - outer_span[1])


def test_recorder_closes_spans_on_exceptions():
    recorder = spans.SpanRecorder()

    def boom():
        raise RuntimeError("simulation exceeded 10 events")

    wrapped = recorder.wrap(boom, "boom", "gpusim.engine")
    with pytest.raises(RuntimeError):
        wrapped()
    after = recorder.wrap(lambda: None, "after", "metrics")
    after()
    assert [span[3] for span in recorder.spans] == [-1, -1]


def test_squad_counter_skips_empty_squads():
    recorder = spans.SpanRecorder()
    squad = recorder.wrap(lambda n: SimpleNamespace(total_kernels=n), "generate_squad",
                          "core.squad", observe=recorder.count_squad)
    for n in (3, 0, 5):
        squad(n)
    assert (recorder.squads, recorder.squad_kernels) == (2, 8)
