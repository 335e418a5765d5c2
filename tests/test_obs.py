"""Unified observability layer: registry, tracer, exporters, analysis.

The load-bearing guarantees pinned here:

* every system's ``ServingResult.extras`` is its metrics registry's
  scalar view, in the historical key order — golden result files must
  not churn;
* decision tracing is strictly opt-in: with tracing off the engine and
  runtime carry ``trace = None`` and behave identically;
* same seed + same fault plan ⇒ **byte-identical** trace files across
  two runs (both the JSON-lines stream and the Perfetto export);
* the Perfetto document has the promised track layout — kernel slices
  on context and app tracks, decision instants and squad slices on the
  scheduler track, fault instants on the fault thread — all on the
  simulated clock;
* the analyzer is NaN-safe on empty traces.
"""

import json
import math

import pytest

from repro import BlessRuntime, bind_load, symmetric_pair
from repro.experiments.common import INFERENCE_SYSTEMS
from repro.gateway import parse_slo_mix
from repro.gpusim.faults import FaultPlan
from repro.obs import (
    MetricsRegistry,
    Observability,
    analyze,
    load_records_jsonl,
    resolve_trace_target,
    resolve_tracing,
    save_jsonl,
    save_perfetto,
    to_perfetto,
)
from repro.obs import events as ev
from repro.obs.events import TraceEvent
from repro.obs.registry import LATENCY_BUCKETS_US


def serve_traced(trace=True, faults=True, requests=3):
    plan = (
        FaultPlan(kernel_failure_rate=0.05, context_crash_times=(4000.0,), seed=7)
        if faults
        else None
    )
    system = BlessRuntime(trace=trace, fault_plan=plan)
    result = system.serve(
        bind_load(symmetric_pair("R50"), "B", requests=requests)
    )
    return system, result


class TestRegistry:
    def test_scalar_and_histogram_snapshot(self):
        reg = MetricsRegistry()
        reg.set("engine_events", 3)
        reg.set("squads", 5)
        hist = reg.histogram("latency/request_us", boundaries=(10.0, 100.0))
        for value in (5.0, 50.0, 500.0):
            hist.observe(value)
        assert reg.scalars() == {"engine_events": 3.0, "squads": 5.0}
        snap = reg.snapshot()
        assert snap["engine_events"] == 3.0
        assert snap["squads"] == 5.0
        assert snap["latency/request_us/le_10"] == 1.0
        assert snap["latency/request_us/le_100"] == 2.0
        assert snap["latency/request_us/le_inf"] == 3.0
        assert snap["latency/request_us/count"] == 3.0
        assert snap["latency/request_us/sum"] == 555.0

    def test_get_or_create_is_idempotent_and_typed(self):
        reg = MetricsRegistry()
        assert reg.histogram("a/b") is reg.histogram("a/b")
        reg.set("squads", 1)
        # A scalar is set once per run, and a name has one kind.
        for clash in (lambda: reg.set("squads", 2), lambda: reg.set("a/b", 1),
                      lambda: reg.histogram("squads")):
            with pytest.raises(ValueError):
                clash()

    def test_bad_names_rejected(self):
        reg = MetricsRegistry()
        for bad in ("", "/x", "x/", "sp ace/x", "dash-ns/x"):
            with pytest.raises(ValueError):
                reg.set(bad, 1)

    def test_histogram_boundaries_must_increase(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("h/x", boundaries=(1.0, 1.0))
        with pytest.raises(ValueError):
            reg.histogram("h/y", boundaries=())

    def test_default_latency_buckets_are_sorted(self):
        assert list(LATENCY_BUCKETS_US) == sorted(LATENCY_BUCKETS_US)


class TestExtrasCompatibility:
    @pytest.mark.parametrize("name", sorted(INFERENCE_SYSTEMS))
    def test_extras_equal_registry_scalars(self, name):
        """Every system's extras is its registry's scalar view: same
        keys, same order, same values, under faults and an SLO mix."""
        apps = symmetric_pair("R50")
        system = INFERENCE_SYSTEMS[name](
            fault_plan=FaultPlan(kernel_failure_rate=0.05, seed=7),
            slo=parse_slo_mix("lc,be", [app.app_id for app in apps]),
        )
        result = system.serve(bind_load(apps, "B", requests=3))
        assert "fault_shed_requests" in result.extras
        assert "slo_arrived_latency_critical" in result.extras
        assert list(result.extras.items()) == list(
            system.obs.registry.scalars().items()
        )

    def test_extras_schema_unchanged_by_tracing(self):
        _, traced = serve_traced(trace=True)
        _, untraced = serve_traced(trace=False)
        assert list(traced.extras) == list(untraced.extras)
        assert traced.extras == untraced.extras

    def test_extras_schema_pinned(self):
        # The exact historical key order of a BLESS fault run, as
        # written before the registry existed.  The registry must
        # reproduce it byte for byte — this keeps golden files stable.
        system, result = serve_traced(trace=False)
        assert list(result.extras) == [
            "engine_events_processed",
            "engine_rebalances",
            "engine_rebalances_skipped",
            "engine_rebalance_cache_hits",
            "engine_epoch_batches",
            "engine_epoch_kernels_advanced",
            "engine_epoch_max_batch",
            "engine_heap_compactions",
            "engine_peak_heap_size",
            "engine_gap_events_superseded",
            "engine_kernels_failed",
            "engine_kernels_retried",
            "engine_kernels_killed",
            "fault_slowdown_spikes",
            "fault_transient_retries",
            "fault_permanent_failures",
            "fault_context_crashes",
            "fault_context_crashes_skipped",
            "fault_kernels_killed",
            "fault_degraded_relaunches",
            "fault_shed_failed",
            "fault_shed_timeout",
            "fault_shed_requests",
            "fault_stale_completions",
            "fault_profile_stale_events",
            "fault_degradation_events",
            "fault_requests_arrived",
            "squads",
            "spatial_squads",
            "context_switches",
            "context_memory_mb",
            "peak_context_memory_mb",
            "context_evictions",
            "oom_fallbacks",
            "profile_stale",
            "kernels_per_squad",
            "config_cache_hits",
            "config_cache_misses",
            "config_cache_evictions",
            "config_cache_invalidations",
            "config_cache_hit_rate",
        ]
        # And the registry's full snapshot carries the same scalars
        # under the same names (histograms are registry-only).
        snapshot = system.obs.registry.snapshot()
        assert snapshot["engine_events_processed"] == (
            result.extras["engine_events_processed"]
        )
        assert snapshot["squads"] == result.extras["squads"]
        assert "latency/request_us/count" in snapshot


class TestTracingOptIn:
    def test_off_by_default(self):
        system, _ = serve_traced(trace=None, faults=False, requests=2)
        assert system.obs.tracer is None
        assert system.engine.trace is None
        assert system.determiner.trace is None
        assert system.manager.trace is None

    def test_env_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert resolve_tracing() is True
        assert resolve_trace_target() is None
        monkeypatch.setenv("REPRO_TRACE", "out/trace.json")
        assert resolve_tracing() is True
        assert resolve_trace_target() == "out/trace.json"
        monkeypatch.setenv("REPRO_TRACE", "0")
        assert resolve_tracing() is False
        # The explicit flag always wins.
        assert resolve_tracing(True) is True
        monkeypatch.delenv("REPRO_TRACE")
        assert resolve_tracing() is False

    def test_observability_emit_is_noop_when_off(self):
        obs = Observability(tracing=False)
        obs.emit(ev.SQUAD_COMPOSED, squad_id=1)  # must not raise
        assert obs.tracer is None


class TestDecisionStream:
    def test_unified_stream_contents(self):
        system, _ = serve_traced()
        records = system.obs.tracer.records
        types = {r.etype for r in records}
        assert ev.KERNEL in types
        assert ev.SQUAD_COMPOSED in types
        assert ev.CONFIG_CHOSEN in types
        assert ev.SQUAD_DONE in types
        assert ev.REQUEST_ARRIVED in types and ev.REQUEST_DONE in types
        assert any(t.startswith("fault.") for t in types)
        # Shared simulated clock: timestamps are bounded by the run.
        assert all(0.0 <= r.ts_us <= system.engine.now for r in records)

    def test_squad_composed_carries_progress(self):
        system, _ = serve_traced(faults=False)
        composed = system.obs.tracer.of_type(ev.SQUAD_COMPOSED)
        assert composed
        first = composed[0]
        assert first.args["members"]
        assert set(first.args["kernels"]) <= set(first.args["relative_progress"])

    def test_config_chosen_cache_hits_marked(self):
        system, _ = serve_traced(faults=False)
        chosen = system.obs.tracer.of_type(ev.CONFIG_CHOSEN)
        assert chosen
        misses = [c for c in chosen if not c.args["cache_hit"]]
        hits = [c for c in chosen if c.args["cache_hit"]]
        assert misses, "first decision is always a miss"
        assert all("candidates" in c.args and "nsp_us" in c.args for c in misses)
        cache = system.determiner.cache_stats
        assert len(hits) == cache.hits
        assert len(misses) == cache.misses

    def test_squad_done_predictions_pair_with_durations(self):
        system, _ = serve_traced(faults=False)
        done = system.obs.tracer.of_type(ev.SQUAD_DONE)
        assert done
        for record in done:
            assert record.args["duration_us"] >= 0.0
            assert record.args["start_us"] <= record.ts_us
            assert "predicted_us" in record.args


class TestDeterminism:
    def test_same_seed_traces_are_byte_identical(self, tmp_path):
        paths = []
        for run in range(2):
            system, _ = serve_traced()
            jsonl = tmp_path / f"run{run}.jsonl"
            perfetto = tmp_path / f"run{run}.json"
            system.obs.tracer.save_records_jsonl(jsonl)
            save_perfetto(system.obs.tracer.records, perfetto)
            paths.append((jsonl, perfetto))
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    def test_jsonl_roundtrip(self, tmp_path):
        system, _ = serve_traced()
        path = tmp_path / "trace.jsonl"
        count = system.obs.tracer.save_records_jsonl(path)
        reloaded = load_records_jsonl(path)
        assert len(reloaded) == count
        original = sorted(
            system.obs.tracer.records,
            key=lambda r: (r.ts_us, r.etype, r.app_id),
        )
        assert reloaded[0].etype == original[0].etype
        assert reloaded[-1].ts_us == original[-1].ts_us
        assert [r.etype for r in reloaded] == [r.etype for r in original]


class TestPerfettoExport:
    def test_track_layout(self):
        system, _ = serve_traced()
        doc = to_perfetto(system.obs.tracer.records)
        events = doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ms"
        metas = [e for e in events if e["ph"] == "M"]
        names = {(m["pid"], m["args"]["name"]) for m in metas}
        assert (1, "scheduler") in names
        assert (2, "GPU contexts") in names
        assert (3, "apps") in names
        # Kernel slices are mirrored on the context and app tracks.
        slices = [e for e in events if e["ph"] == "X"]
        assert {e["pid"] for e in slices} >= {1, 2, 3}
        ctx_slices = [e for e in slices if e["pid"] == 2]
        app_slices = [e for e in slices if e["pid"] == 3]
        assert len(ctx_slices) == len(app_slices)
        # Decision instants on the scheduler track; faults on tid 3.
        instants = [e for e in events if e["ph"] == "i"]
        assert instants and all(e["pid"] == 1 for e in instants)
        assert any(e["tid"] == 3 and e["cat"] == "fault" for e in instants)
        assert any(e["tid"] == 1 and e["cat"] == "decision" for e in instants)
        # All slices/instants carry non-negative simulated-µs stamps.
        assert all(e["ts"] >= 0.0 for e in events if e["ph"] != "M")
        assert all(e["dur"] >= 0.0 for e in slices)

    def test_json_serializable_and_loadable(self, tmp_path):
        system, _ = serve_traced()
        path = tmp_path / "trace.json"
        count = save_perfetto(system.obs.tracer.records, path)
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == count

    def test_unknown_event_types_are_skipped(self):
        doc = to_perfetto([TraceEvent(ts_us=1.0, etype="mystery.event")])
        assert all(e["ph"] == "M" for e in doc["traceEvents"])

    def test_save_jsonl_sorted(self, tmp_path):
        records = [
            TraceEvent(ts_us=5.0, etype=ev.SQUAD_COMPOSED),
            TraceEvent(ts_us=1.0, etype=ev.REQUEST_ARRIVED, app_id="a"),
        ]
        path = tmp_path / "t.jsonl"
        assert save_jsonl(records, path) == 2
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["ts_us"] for line in lines] == [1.0, 5.0]


class TestAnalysis:
    def test_empty_trace_is_nan_safe(self):
        reports = analyze([])
        assert reports["critical_path"]["requests"] == 0.0
        assert math.isnan(reports["critical_path"]["mean_span_us"])
        assert reports["predictor"]["squads_scored"] == 0.0
        assert math.isnan(reports["predictor"]["mean_abs_rel_error"])
        assert math.isnan(reports["predictor"]["max_abs_rel_error"])
        assert math.isnan(reports["decisions"]["config_cache_hit_rate"])
        assert reports["decisions"]["kernels"] == 0.0

    def test_critical_paths_tile_request_spans(self):
        system, _ = serve_traced(faults=False)
        reports = analyze(system.obs.tracer.records)
        cp = reports["critical_path"]
        assert cp["requests"] > 0
        assert cp["mean_exec_us"] <= cp["mean_span_us"]
        assert cp["mean_exec_us"] + cp["mean_gap_us"] == pytest.approx(
            cp["mean_span_us"]
        )
        assert 0.0 < cp["mean_exec_fraction"] <= 1.0

    def test_predictor_report_matches_paper_scale(self):
        # Fig. 10 reports ~5% estimator error; the simulator-calibrated
        # predictors should land the mean relative error well below 50%.
        system, _ = serve_traced(faults=False)
        predictor = analyze(system.obs.tracer.records)["predictor"]
        assert predictor["squads_scored"] > 0
        assert predictor["mean_abs_rel_error"] < 0.5

    def test_fault_attribution(self):
        system, _ = serve_traced(faults=True)
        records = system.obs.tracer.records
        from repro.obs import request_critical_paths

        paths = request_critical_paths(records)
        retried = sum(p.retries for p in paths)
        assert retried == len([r for r in records if r.etype == ev.FAULT_RETRY])

    def test_decision_summary_counts(self):
        system, _ = serve_traced(faults=False)
        summary = analyze(system.obs.tracer.records)["decisions"]
        assert summary["squads_composed"] == summary["configs_chosen"]
        assert 0.0 <= summary["config_cache_hit_rate"] <= 1.0


class TestCliTrace:
    def test_trace_command_writes_perfetto(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "cli_trace.json"
        code = main(
            [
                "serve",
                "--models", "R50", "R50",
                "--load", "B",
                "--requests", "2",
                "--systems", "BLESS",
                "--trace", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        assert "post-hoc analysis" in capsys.readouterr().out

    def test_serve_with_trace_flag(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "serve.json"
        code = main(
            [
                "serve",
                "--models", "R50", "R50",
                "--load", "B",
                "--requests", "2",
                "--systems", "GSLICE", "BLESS",
                "--trace", str(out),
            ]
        )
        assert code == 0
        # One suffixed file per system.
        assert (tmp_path / "serve-GSLICE.json").exists()
        assert (tmp_path / "serve-BLESS.json").exists()

    def test_serve_names_a_system_it_cannot_trace(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CATALOG", "off")
        out = tmp_path / "t.json"
        code = main(
            [
                "serve",
                "--models", "R50", "R50",
                "--load", "B",
                "--requests", "2",
                "--systems", "BLESS", "ISO",
                "--trace", str(out),
            ]
        )
        assert code == 0
        lines = [
            line.strip()
            for line in capsys.readouterr().out.splitlines()
            if line.strip().startswith("trace:")
        ]
        assert len(lines) == 2
        assert lines[0].startswith(f"trace: {tmp_path / 't-BLESS.json'} (")
        assert lines[1] == "trace: ISO does not support decision tracing"
        assert not (tmp_path / "t-ISO.json").exists()
