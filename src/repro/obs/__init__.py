"""Unified observability: decision tracing, metrics, exporters, analysis.

One :class:`Observability` instance rides along with each serving
harness.  It owns the run's :class:`MetricsRegistry` always, and — when
tracing is enabled — attaches a :class:`DecisionTracer` to the engine
so kernel completions and scheduler decisions land on one simulated
clock stream.  Tracing is opt-in (``trace=True`` on a system, ``--trace``
on the CLI, or the ``REPRO_TRACE`` environment variable) and costs
nothing when off: emission sites are ``if trace is not None`` guards
off the hot path.

See ``docs/observability.md`` for the event taxonomy, the metric
names and merge rules, and the Perfetto workflow.
"""

from __future__ import annotations

import os
from typing import Any, Optional

from .analysis import (
    RequestPath,
    analyze,
    critical_path_summary,
    decision_summary,
    predictor_report,
    request_critical_paths,
)
from .events import DECISION_TYPES, TraceEvent
from .exporters import save_jsonl, save_perfetto, to_perfetto
from .registry import (
    KERNEL_BUCKETS_US,
    LATENCY_BUCKETS_US,
    Histogram,
    MetricsRegistry,
)
from .tracer import DecisionTracer, load_records_jsonl

#: Environment variable that turns tracing on for any ``serve()``.
#: Falsy values ("", "0", "false", "off", "no") leave tracing off; any
#: other value enables it, and if the value looks like a path the CLI
#: uses it as the default output file.
TRACE_ENV = "REPRO_TRACE"

_FALSY = ("", "0", "false", "off", "no")


def resolve_tracing(explicit: Optional[bool] = None) -> bool:
    """Decide whether tracing is on: explicit flag beats ``REPRO_TRACE``."""
    if explicit is not None:
        return explicit
    return os.environ.get(TRACE_ENV, "").strip().lower() not in _FALSY


def resolve_trace_target(explicit: Optional[str] = None) -> Optional[str]:
    """The trace output path, if one was requested.

    ``explicit`` (e.g. the CLI's ``--trace PATH``) wins; otherwise a
    path-looking ``REPRO_TRACE`` value ("1"/"true" just enable tracing
    without naming a file) is used.
    """
    if explicit:
        return explicit
    value = os.environ.get(TRACE_ENV, "").strip()
    if value.lower() in _FALSY or value.lower() in ("1", "true", "on", "yes"):
        return None
    return value


class Observability:
    """Per-run bundle: metrics registry + (optional) decision tracer."""

    def __init__(self, tracing: Optional[bool] = None):
        self.tracing = resolve_tracing(tracing)
        self.registry = MetricsRegistry()
        self.tracer: Optional[DecisionTracer] = None

    def begin_serve(self, engine) -> Optional[DecisionTracer]:
        """Attach a fresh tracer to this run's engine (if tracing is on).

        Called by the harness once per ``serve()`` after the engine is
        built; repeated serves on one system each get their own tracer.
        """
        if self.tracing:
            self.tracer = DecisionTracer(engine)
        return self.tracer

    def emit(self, etype: str, app_id: str = "", **args: Any) -> None:
        """Forward a decision event to the tracer (no-op when off)."""
        if self.tracer is not None:
            self.tracer.emit(etype, app_id, **args)


__all__ = [
    "Observability",
    "DecisionTracer",
    "TraceEvent",
    "DECISION_TYPES",
    "MetricsRegistry",
    "Histogram",
    "LATENCY_BUCKETS_US",
    "KERNEL_BUCKETS_US",
    "TRACE_ENV",
    "resolve_tracing",
    "resolve_trace_target",
    "to_perfetto",
    "save_perfetto",
    "save_jsonl",
    "load_records_jsonl",
    "analyze",
    "request_critical_paths",
    "critical_path_summary",
    "predictor_report",
    "decision_summary",
    "RequestPath",
]
