"""ASCII timeline rendering of simulated GPU execution.

Renders an engine's recorded :class:`TimelineSegment` stream as the
kind of per-application Gantt strip the paper draws in Fig. 1 / Fig. 3 /
Fig. 18(a): one lane per application, one lane for total GPU occupancy,
with bubbles visible as gaps.

The renderer is resolution-independent: the window is divided into
fixed-width buckets and each bucket shows the app's average SM share
through a shade ramp (`` .:-=+*#%@``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..gpusim.engine import TimelineSegment

# Shade ramp from idle to fully busy.
_RAMP = " .:-=+*#%@"


def _shade(fraction: float) -> str:
    fraction = min(1.0, max(0.0, fraction))
    index = min(len(_RAMP) - 1, int(round(fraction * (len(_RAMP) - 1))))
    return _RAMP[index]


@dataclass
class TimelineView:
    """A rendered timeline: per-app lanes plus the total-occupancy lane."""

    start_us: float
    end_us: float
    width: int
    lanes: Dict[str, str]
    total: str

    def render(self) -> str:
        label_width = max(
            [len(app) for app in self.lanes] + [len("GPU total")]
        )
        lines = [
            f"timeline {self.start_us / 1000:.2f}ms .. {self.end_us / 1000:.2f}ms "
            f"({self.width} buckets of "
            f"{(self.end_us - self.start_us) / self.width / 1000:.3f}ms)"
        ]
        for app, lane in self.lanes.items():
            lines.append(f"{app.rjust(label_width)} |{lane}|")
        lines.append(f"{'GPU total'.rjust(label_width)} |{self.total}|")
        return "\n".join(lines)


def bucketise(
    timeline: Sequence[TimelineSegment],
    start_us: float,
    end_us: float,
    width: int,
) -> Tuple[Dict[str, List[float]], List[float]]:
    """Average SM share per app per time bucket.

    Returns ``(per_app, total)`` where ``per_app[app][i]`` is the app's
    mean SM fraction in bucket ``i`` and ``total[i]`` the sum over apps.
    """
    if width < 1:
        raise ValueError("width must be at least 1")
    if end_us <= start_us:
        raise ValueError("end must be after start")
    bucket_us = (end_us - start_us) / width
    per_app: Dict[str, List[float]] = {}
    total = [0.0] * width

    for segment in timeline:
        lo = max(segment.start, start_us)
        hi = min(segment.end, end_us)
        if hi <= lo:
            continue
        # Aggregate this segment's per-app SM share.
        shares: Dict[str, float] = {}
        for app_id, sm_fraction, _rate in segment.running.values():
            shares[app_id] = shares.get(app_id, 0.0) + sm_fraction
        first = int((lo - start_us) / bucket_us)
        last = min(width - 1, int((hi - start_us - 1e-12) / bucket_us))
        for bucket in range(first, last + 1):
            b_lo = start_us + bucket * bucket_us
            b_hi = b_lo + bucket_us
            overlap = max(0.0, min(hi, b_hi) - max(lo, b_lo))
            weight = overlap / bucket_us
            for app_id, share in shares.items():
                lane = per_app.setdefault(app_id, [0.0] * width)
                lane[bucket] += share * weight
                total[bucket] += share * weight
    return per_app, total


def render_timeline(
    timeline: Sequence[TimelineSegment],
    start_us: Optional[float] = None,
    end_us: Optional[float] = None,
    width: int = 80,
    apps: Optional[Sequence[str]] = None,
) -> TimelineView:
    """Render a recorded timeline into an ASCII view.

    ``apps`` restricts/reorders the lanes; by default lanes appear in
    first-seen order.  Use ``view.render()`` for the printable string.
    """
    if not timeline:
        raise ValueError("empty timeline — run the engine with record_timeline=True")
    lo = start_us if start_us is not None else timeline[0].start
    hi = end_us if end_us is not None else timeline[-1].end
    per_app, total = bucketise(timeline, lo, hi, width)

    if apps is None:
        apps = list(per_app)
    lanes = {
        app: "".join(_shade(v) for v in per_app.get(app, [0.0] * width))
        for app in apps
    }
    total_lane = "".join(_shade(min(1.0, v)) for v in total)
    return TimelineView(start_us=lo, end_us=hi, width=width, lanes=lanes, total=total_lane)
