"""Regression-gate semantics on top of catalog comparisons.

A threshold is ``metric=signed_fraction`` where the **sign encodes the
bad direction**:

* ``throughput_qps=-0.05`` — fail when throughput *drops* more than 5%
  (relative delta below −0.05);
* ``p99_latency_us=0.10``  — fail when p99 latency *rises* more than
  10% (relative delta above +0.10).

This keeps the gate direction-explicit without a separate
higher/lower-is-better table, and makes custom gates one CLI flag:
``--threshold cache_speedup=-0.25``.  The defaults are the CI contract
(docs/results-catalog.md): throughput −5%, p99 +10%, and the
config-search bench's interleaved-median ``cache_speedup`` ratio −25%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from .store import MetricComparison

DEFAULT_THRESHOLDS: Dict[str, float] = {
    "throughput_qps": -0.05,
    "p99_latency_us": 0.10,
    # The ratio divides by a memoized replay that finishes in
    # milliseconds, so even interleaved-pair medians swing ~15% on
    # shared boxes.  -25% still catches a real regression by a wide
    # margin (breaking memoization drops the ratio about 90%).
    "cache_speedup": -0.25,
}


class ThresholdError(ValueError):
    """A malformed ``metric=fraction`` threshold spec."""


def parse_thresholds(specs: Iterable[str]) -> Dict[str, float]:
    """Parse ``metric=signed_fraction`` CLI specs (empty -> defaults)."""
    specs = list(specs)
    if not specs:
        return dict(DEFAULT_THRESHOLDS)
    out: Dict[str, float] = {}
    for spec in specs:
        name, sep, raw = spec.partition("=")
        name = name.strip()
        if not sep or not name:
            raise ThresholdError(
                f"threshold {spec!r} is not of the form metric=signed_fraction"
            )
        try:
            value = float(raw)
        except ValueError as exc:
            raise ThresholdError(f"threshold {spec!r}: {raw!r} is not a number") from exc
        if value == 0.0:
            raise ThresholdError(
                f"threshold {spec!r}: the fraction's sign encodes the bad "
                "direction, so it cannot be zero"
            )
        out[name] = value
    return out


@dataclass
class GateViolation:
    """One comparison that moved past its threshold."""

    comparison: MetricComparison
    threshold: float

    def describe(self) -> str:
        c = self.comparison
        direction = "fell" if self.threshold < 0 else "rose"
        return (
            f"{c.experiment}/{c.system}: {c.metric} {direction} "
            f"{c.rel_delta:+.1%} ({c.baseline:.6g} -> {c.current:.6g}), "
            f"threshold {self.threshold:+.0%}"
        )


def evaluate(
    comparisons: Sequence[MetricComparison],
    thresholds: Dict[str, float],
) -> Tuple[List[GateViolation], List[MetricComparison]]:
    """Split comparisons into violations and checked-and-passed.

    Only metrics named in ``thresholds`` are gated; everything else is
    informational.  A negative threshold fails drops below it, a
    positive one fails rises above it.
    """
    violations: List[GateViolation] = []
    checked: List[MetricComparison] = []
    for comparison in comparisons:
        threshold = thresholds.get(comparison.metric)
        if threshold is None:
            continue
        checked.append(comparison)
        delta = comparison.rel_delta
        if threshold < 0 and delta < threshold:
            violations.append(GateViolation(comparison, threshold))
        elif threshold > 0 and delta > threshold:
            violations.append(GateViolation(comparison, threshold))
    return violations, checked


def format_comparison_table(
    comparisons: Sequence[MetricComparison],
    thresholds: Dict[str, float],
    violations: Sequence[GateViolation],
) -> str:
    """A fixed-width report of every compared metric, gated ones marked."""
    bad = {id(v.comparison) for v in violations}
    header = ["experiment", "system", "metric", "baseline", "current",
              "delta", "runs", "gate"]
    rows: List[List[str]] = []
    for c in comparisons:
        if c.metric in thresholds:
            verdict = "FAIL" if id(c) in bad else "ok"
        else:
            verdict = "-"
        rows.append(
            [
                c.experiment,
                c.system,
                c.metric,
                f"{c.baseline:.6g}",
                f"{c.current:.6g}",
                f"{c.rel_delta:+.1%}",
                f"{c.runs_baseline}/{c.runs_current}",
                verdict,
            ]
        )
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
