"""Post-hoc trace analysis: critical paths and predictor error.

Works on the unified :class:`~repro.obs.events.TraceEvent` stream (from
a live :class:`~repro.obs.tracer.DecisionTracer` or re-loaded with
:func:`~repro.obs.tracer.load_records_jsonl`):

* :func:`request_critical_paths` reconstructs, per request, how its
  end-to-end span splits into kernel **execution** vs **queue wait**
  vs unaccounted **scheduling gap** — the bubbles BLESS exists to
  squeeze;
* :func:`predictor_report` pairs each squad's Eq. 1 / NSP predicted
  duration (``squad.done`` carries both the prediction the determiner
  committed to and the simulated outcome) and reports the error
  distribution the paper validates in Fig. 10;
* :func:`decision_summary` tallies the decision stream (squads,
  cache hit rate, Semi-SP switches, faults).

Every function is NaN-safe on empty traces: aggregate means come back
as ``math.nan`` (mirroring ``metrics/stats.py`` percentiles), counts as
zero, and list outputs empty — never an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from . import events as ev
from .events import TraceEvent


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else math.nan


@dataclass(frozen=True)
class RequestPath:
    """The critical-path decomposition of one request.

    ``span_us`` is first-enqueue → last-finish.  ``exec_us`` sums
    kernel execution (sequential within a request, so it tiles the
    span), and ``gap_us`` is the rest of the span — the scheduling
    bubbles BLESS squeezes: squad boundaries, context switches, retry
    backoff, and time spent behind co-runners.  ``queue_wait_us`` is
    the *sum* of per-kernel enqueue→start waits; a whole squad slice
    enqueues at once, so these waits overlap and the sum can exceed
    the span — compare requests with it, don't tile the span with it.
    """

    app_id: str
    request_id: int
    kernels: int
    span_us: float
    exec_us: float
    queue_wait_us: float
    gap_us: float
    retries: int
    failed_kernels: int

    @property
    def exec_fraction(self) -> float:
        return self.exec_us / self.span_us if self.span_us > 0 else math.nan


def request_critical_paths(records: Sequence[TraceEvent]) -> List[RequestPath]:
    """Per-request span/exec/wait/gap decomposition from kernel records.

    Requests are keyed ``(app_id, request_id)`` and returned in first
    appearance order.  Fault events attribute retries and permanent
    kernel failures to their request where the trace carries enough
    identity (``request_id`` in the event args).
    """
    kernels: Dict[Tuple[str, int], List[TraceEvent]] = {}
    retries: Dict[Tuple[str, int], int] = {}
    failures: Dict[Tuple[str, int], int] = {}
    for record in records:
        if record.etype == ev.KERNEL:
            key = (record.app_id, int(record.args.get("request_id", -1)))
            kernels.setdefault(key, []).append(record)
        elif record.etype == ev.FAULT_RETRY:
            request_id = record.args.get("request_id")
            if request_id is not None:
                key = (record.app_id, int(request_id))
                retries[key] = retries.get(key, 0) + 1
        elif record.etype == ev.FAULT_KERNEL_FAILED:
            request_id = record.args.get("request_id")
            if request_id is not None:
                key = (record.app_id, int(request_id))
                failures[key] = failures.get(key, 0) + 1

    paths: List[RequestPath] = []
    for key, recs in kernels.items():
        enqueues = [float(r.args["enqueue_us"]) for r in recs]
        starts = [float(r.args["start_us"]) for r in recs]
        finishes = [float(r.args["finish_us"]) for r in recs]
        span = max(finishes) - min(enqueues)
        exec_us = sum(f - s for s, f in zip(starts, finishes))
        wait_us = sum(s - e for e, s in zip(enqueues, starts))
        paths.append(
            RequestPath(
                app_id=key[0],
                request_id=key[1],
                kernels=len(recs),
                span_us=span,
                exec_us=exec_us,
                queue_wait_us=wait_us,
                gap_us=max(0.0, span - exec_us),
                retries=retries.get(key, 0),
                failed_kernels=failures.get(key, 0),
            )
        )
    return paths


def critical_path_summary(records: Sequence[TraceEvent]) -> Dict[str, float]:
    """Aggregate view of :func:`request_critical_paths` (NaN-safe)."""
    paths = request_critical_paths(records)
    return {
        "requests": float(len(paths)),
        "mean_span_us": _mean([p.span_us for p in paths]),
        "mean_exec_us": _mean([p.exec_us for p in paths]),
        "mean_queue_wait_us": _mean([p.queue_wait_us for p in paths]),
        "mean_gap_us": _mean([p.gap_us for p in paths]),
        "mean_exec_fraction": _mean(
            [p.exec_fraction for p in paths if not math.isnan(p.exec_fraction)]
        ),
    }


def predictor_report(records: Sequence[TraceEvent]) -> Dict[str, float]:
    """Predicted-vs-simulated squad duration error (Fig. 10's metric).

    Uses ``squad.done`` events, which carry the duration the execution
    configuration determiner committed to (``predicted_us``) and the
    simulated outcome (``duration_us``).  Squads without a prediction
    (quota-proportional fallback, solo squads served by profile lookup)
    are skipped.  NaN-safe on empty traces.
    """
    errors: List[float] = []
    abs_rel: List[float] = []
    for record in records:
        if record.etype != ev.SQUAD_DONE:
            continue
        predicted = record.args.get("predicted_us")
        actual = record.args.get("duration_us")
        if predicted is None or actual is None or actual <= 0:
            continue
        errors.append(float(predicted) - float(actual))
        abs_rel.append(abs(float(predicted) - float(actual)) / float(actual))
    return {
        "squads_scored": float(len(errors)),
        "mean_error_us": _mean(errors),
        "mean_abs_rel_error": _mean(abs_rel),
        "max_abs_rel_error": max(abs_rel) if abs_rel else math.nan,
    }


def decision_summary(records: Sequence[TraceEvent]) -> Dict[str, float]:
    """Tallies of the decision stream (NaN-safe on empty traces)."""
    counts: Dict[str, int] = {}
    cache_hits = 0
    config_events = 0
    for record in records:
        counts[record.etype] = counts.get(record.etype, 0) + 1
        if record.etype == ev.CONFIG_CHOSEN:
            config_events += 1
            if record.args.get("cache_hit"):
                cache_hits += 1
    return {
        "kernels": float(counts.get(ev.KERNEL, 0)),
        "squads_composed": float(counts.get(ev.SQUAD_COMPOSED, 0)),
        "configs_chosen": float(config_events),
        "config_cache_hit_rate": (
            cache_hits / config_events if config_events else math.nan
        ),
        "semisp_switches": float(counts.get(ev.SEMISP_SWITCH, 0)),
        "context_evictions": float(counts.get(ev.CONTEXT_EVICTED, 0)),
        "oom_fallbacks": float(counts.get(ev.OOM_FALLBACK, 0)),
        "faults": float(
            sum(n for etype, n in counts.items() if etype.startswith("fault."))
        ),
    }


def analyze(records: Sequence[TraceEvent]) -> Dict[str, Dict[str, float]]:
    """One-call bundle of every report (printed by ``repro serve --trace``)."""
    return {
        "critical_path": critical_path_summary(records),
        "predictor": predictor_report(records),
        "decisions": decision_summary(records),
    }
