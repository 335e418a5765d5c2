"""Aggregation math of the end-to-end benchmark.

Everything here is pure and dependency-free so the rules the benchmark
reports by are unit-tested on their own (``test_e2e_stats.py``,
``test_e2e_spans.py``): the tail-percentile rule, quartiles, failure
counting, pool efficiency and span self time.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10
#: Below this many samples no tail is reported.
TAIL_MIN_SAMPLES = 20


def tail_percentile(n: int) -> Optional[float]:
    """The highest percentile with at least ``TAIL_MIN_BEYOND`` samples beyond it.

    With ``n`` sorted samples the value of rank ``k`` (1-based) has
    ``n - k`` samples above it, so the highest admissible rank is
    ``n - 10`` and its percentile is ``100 * (n - 10) / n``.  Returns
    None below ``TAIL_MIN_SAMPLES`` samples, where a "tail" would be
    the median.
    """
    if n < TAIL_MIN_SAMPLES:
        return None
    return 100.0 * (n - TAIL_MIN_BEYOND) / n


def nearest_rank(values: Sequence[float], percentile: float) -> float:
    """Nearest-rank percentile: the smallest value covering ``percentile``%."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered) - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for one value)."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


def count_failures(
    reps: Iterable[Optional[Sequence[Mapping]]], units_per_rep: int
) -> Tuple[int, int]:
    """``(attempted, failed)`` over a run's reps.

    A rep is the list of its checked units (each a mapping whose
    ``error`` is None when the unit ran and passed its output checks),
    or None when the rep timed out or died.  A lost rep counts every
    unit it should have produced as attempted and failed; a rep that
    returned fewer units than expected counts the missing ones as
    failed too.
    """
    attempted = failed = 0
    for units in reps:
        if units is None:
            attempted += units_per_rep
            failed += units_per_rep
            continue
        bad = sum(1 for unit in units if unit.get("error"))
        missing = max(0, units_per_rep - len(units))
        attempted += len(units) + missing
        failed += bad + missing
    return attempted, failed


def pool_efficiency(cell_walls_s: Sequence[float], jobs: int, grid_wall_s: float) -> float:
    """Sum of per-cell worker wall time over ``jobs x`` the grid's wall time.

    1.0 means every worker was busy simulating for the whole timed
    section; pool start-up, pickling, stragglers and serial work
    between grids all pull it down.
    """
    if jobs < 1 or grid_wall_s <= 0:
        raise ValueError("pool_efficiency needs jobs >= 1 and a positive wall")
    return sum(cell_walls_s) / (jobs * grid_wall_s)


Span = Tuple[str, float, float, int]


def self_times(spans: Sequence[Span]) -> List[float]:
    """Self time of each span: its duration minus its direct children's.

    A span is ``(name, start, end, parent)`` where ``parent`` indexes
    the enclosing span (``-1`` at top level).  Spans come from one
    thread and nest, so a span's direct children cover disjoint parts
    of its interval.
    """
    child_time = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [end - start - child_time[i] for i, (_, start, end, _p) in enumerate(spans)]


def layer_totals(
    spans: Sequence[Span], layer_of: Mapping[str, str]
) -> Dict[str, Tuple[float, int]]:
    """``layer -> (self seconds, calls)`` over ``spans``."""
    totals: Dict[str, Tuple[float, int]] = {}
    for span, own in zip(spans, self_times(spans)):
        layer = layer_of[span[0]]
        seconds, calls = totals.get(layer, (0.0, 0))
        totals[layer] = (seconds + own, calls + 1)
    return totals
