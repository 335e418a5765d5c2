"""Bubble taxonomy: where does idle GPU capacity come from? (§1, §3.2)

The paper's first contribution is a "sophisticated analysis of bubbles
when a GPU is shared by multiple applications".  This module implements
that analysis for a recorded serving run, splitting idle SM capacity
into the categories the paper's motivation distinguishes:

* **intra-request** — at least one request in flight, the GPU partially
  idle *while kernels run* (narrow kernels, dispatch gaps);
* **inter-request** — requests in flight somewhere, but the GPU wholly
  idle (squad boundaries, context switches, host stalls);
* **vacant** — no request in flight at all (not a bubble: there is
  nothing to run, so no system can use it).

``analyze_run`` produces a :class:`BubbleTaxonomy`; comparing the
taxonomy across systems shows exactly which bubbles a scheduler
squeezes (BLESS attacks the first two; GSLICE/MIG cannot touch either).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..gpusim.engine import TimelineSegment


@dataclass(frozen=True)
class BubbleTaxonomy:
    """Idle-capacity breakdown over a serving run (SM-fraction x µs)."""

    horizon_us: float
    busy: float
    intra_request_bubble: float
    inter_request_bubble: float
    vacant: float

    @property
    def total_bubble(self) -> float:
        return self.intra_request_bubble + self.inter_request_bubble

    @property
    def bubble_ratio(self) -> float:
        """Bubbles as a fraction of in-flight capacity."""
        inflight_capacity = self.busy + self.total_bubble
        if inflight_capacity <= 0:
            return 0.0
        return self.total_bubble / inflight_capacity

    def render(self) -> str:
        rows = [
            ("busy", self.busy),
            ("intra-request bubble", self.intra_request_bubble),
            ("inter-request bubble", self.inter_request_bubble),
            ("vacant (no work)", self.vacant),
        ]
        total = max(1e-12, self.horizon_us)
        lines = ["bubble taxonomy (SM-fraction x ms, share of horizon):"]
        for name, value in rows:
            lines.append(f"  {name:22s} {value / 1000:9.2f}  ({value / total:6.1%})")
        lines.append(f"  bubble ratio while in flight: {self.bubble_ratio:.1%}")
        return "\n".join(lines)


def _merge_windows(
    windows: Sequence[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    """Merge overlapping (start, end) intervals."""
    cleaned = sorted((s, e) for s, e in windows if e > s)
    merged: List[Tuple[float, float]] = []
    for start, end in cleaned:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def analyze_run(
    timeline: Sequence[TimelineSegment],
    inflight_windows: Sequence[Tuple[float, float]],
    horizon_us: float,
) -> BubbleTaxonomy:
    """Classify every unit of GPU capacity over ``[0, horizon_us]``."""
    if horizon_us <= 0:
        raise ValueError("horizon must be positive")
    windows = _merge_windows(inflight_windows)

    def inflight_overlap(lo: float, hi: float) -> float:
        return sum(max(0.0, min(hi, we) - max(lo, ws)) for ws, we in windows)

    busy = 0.0
    intra = 0.0
    covered = 0.0  # time covered by timeline segments
    for segment in timeline:
        lo = max(0.0, segment.start)
        hi = min(horizon_us, segment.end)
        if hi <= lo:
            continue
        duration = hi - lo
        covered += duration
        fraction = min(1.0, segment.busy_fraction)
        busy += fraction * duration
        # Idle capacity while kernels run is intra-request by definition
        # (segments only exist while something executes).
        overlap = inflight_overlap(lo, hi)
        intra += (1.0 - fraction) * overlap

    inflight_total = inflight_overlap(0.0, horizon_us)
    # Whole-GPU idle time while requests are in flight: the in-flight
    # span not covered by any executing segment.
    covered_inflight = 0.0
    for segment in timeline:
        lo = max(0.0, segment.start)
        hi = min(horizon_us, segment.end)
        if hi > lo:
            covered_inflight += inflight_overlap(lo, hi)
    inter = max(0.0, inflight_total - covered_inflight)

    vacant = max(0.0, horizon_us - inflight_total)
    return BubbleTaxonomy(
        horizon_us=horizon_us,
        busy=busy,
        intra_request_bubble=intra,
        inter_request_bubble=inter,
        vacant=vacant,
    )


def compare_taxonomies(
    taxonomies: dict,
) -> List[str]:
    """Side-by-side render of named taxonomies (one line per system)."""
    lines = [
        f"{'system':10s} {'busy':>8s} {'intra':>8s} {'inter':>8s} "
        f"{'vacant':>8s} {'bubble%':>8s}"
    ]
    for name, taxonomy in taxonomies.items():
        lines.append(
            f"{name:10s} {taxonomy.busy / 1000:8.2f} "
            f"{taxonomy.intra_request_bubble / 1000:8.2f} "
            f"{taxonomy.inter_request_bubble / 1000:8.2f} "
            f"{taxonomy.vacant / 1000:8.2f} "
            f"{taxonomy.bubble_ratio:8.1%}"
        )
    return lines
