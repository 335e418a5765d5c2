"""Metrics: latency stats, ISO deviation, result I/O."""

from .deviation import average_deviation_us, latency_deviation_us, speedup_vs_iso
from .io import (
    compare_results,
    load_result,
    load_results,
    save_result,
    save_results,
)
from .stats import (
    FaultStats,
    RequestRecord,
    ServingResult,
    qos_violation_rate,
    summarize,
)

__all__ = [
    "average_deviation_us",
    "compare_results",
    "FaultStats",
    "latency_deviation_us",
    "load_result",
    "load_results",
    "qos_violation_rate",
    "RequestRecord",
    "save_result",
    "save_results",
    "ServingResult",
    "speedup_vs_iso",
    "summarize",
]
