"""Metrics: latency stats, ISO deviation, result I/O."""

from .deviation import latency_deviation_us
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
)

__all__ = [
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
]
