"""The metrics registry of one serving run.

One :class:`MetricsRegistry` lives for one ``serve()``.  Every layer
sets its end-of-run tallies as plain scalars under their final
``ServingResult.extras`` keys (``engine_events_processed``,
``fault_shed_requests``, ``squads``, ``config_cache_hit_rate``), and
:meth:`MetricsRegistry.scalars` *is* the result's ``extras``: no key is
renamed on the way out.  Histograms (``latency/request_us``) are
registry-only; :meth:`MetricsRegistry.snapshot` expands them into
``<name>/le_<bound>`` cumulative buckets plus ``<name>/count`` and
``<name>/sum`` (Prometheus-style).

Metric mutation is deterministic (no wall clock, no sampling), so two
same-seed runs produce identical snapshots.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Mapping, Sequence, Tuple, Union

Number = Union[int, float]

#: Default histogram boundaries for latency-like quantities in
#: microseconds: 1 ms … 10 s in a 1-2.5-5 ladder.  Fixed boundaries
#: keep bucket counts comparable across runs and systems.
LATENCY_BUCKETS_US: Tuple[float, ...] = (
    1e3, 2.5e3, 5e3,
    1e4, 2.5e4, 5e4,
    1e5, 2.5e5, 5e5,
    1e6, 2.5e6, 5e6,
    1e7,
)

#: Default boundaries for kernel-scale durations/waits (µs).
KERNEL_BUCKETS_US: Tuple[float, ...] = (
    1.0, 2.5, 5.0,
    10.0, 25.0, 50.0,
    100.0, 250.0, 500.0,
    1e3, 2.5e3, 5e3,
)


class Histogram:
    """A fixed-boundary histogram with cumulative-bucket snapshots.

    ``boundaries`` are the inclusive upper bounds of the finite
    buckets; observations above the last boundary land in the implicit
    ``+inf`` bucket.  Boundaries are fixed at creation so bucket counts
    are comparable across runs, systems, and exports.
    """

    __slots__ = ("name", "boundaries", "counts", "sum", "count")

    def __init__(self, name: str, boundaries: Sequence[float]):
        if not boundaries:
            raise ValueError(f"histogram {name} needs at least one boundary")
        ordered = tuple(float(b) for b in boundaries)
        if any(b >= c for b, c in zip(ordered, ordered[1:])):
            raise ValueError(f"histogram {name} boundaries must strictly increase")
        self.name = name
        self.boundaries = ordered
        self.counts = [0] * (len(ordered) + 1)  # last = +inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: Number) -> None:
        self.counts[bisect_right(self.boundaries, value)] += 1
        self.sum += value
        self.count += 1

    def snapshot_items(self) -> List[Tuple[str, float]]:
        """Cumulative ``le`` buckets plus count/sum, Prometheus-style."""
        items: List[Tuple[str, float]] = []
        cumulative = 0
        for bound, bucket in zip(self.boundaries, self.counts):
            cumulative += bucket
            items.append((f"{self.name}/le_{bound:g}", float(cumulative)))
        items.append((f"{self.name}/le_inf", float(self.count)))
        items.append((f"{self.name}/count", float(self.count)))
        items.append((f"{self.name}/sum", self.sum))
        return items


def _check_name(name: str) -> None:
    if not name or name.startswith("/") or name.endswith("/"):
        raise ValueError(f"bad metric name {name!r}")
    for ch in name:
        if not (ch.isascii() and (ch.isalnum() or ch in "_/")):
            raise ValueError(f"bad metric name {name!r} (character {ch!r})")


class MetricsRegistry:
    """One run's scalars and histograms, in registration order.

    A scalar is a plain named value, set once per run under its final
    ``extras`` key; :meth:`scalars` is ``ServingResult.extras``, so the
    key order of a result is the order its metrics were registered.
    """

    def __init__(self) -> None:
        self._scalars: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _claim(self, name: str) -> None:
        if name in self._scalars or name in self._histograms:
            raise ValueError(f"metric {name!r} is already registered")
        _check_name(name)

    def set(self, name: str, value: Number) -> None:
        """Register the scalar ``name`` (set once per run)."""
        self._claim(name)
        self._scalars[name] = float(value)

    def import_mapping(self, prefix: str, values: Mapping[str, Number]) -> None:
        """Set ``<prefix><key>`` for every entry of a tally mapping, in order."""
        for key, value in values.items():
            self.set(prefix + key, value)

    def histogram(
        self, name: str, boundaries: Sequence[float] = LATENCY_BUCKETS_US
    ) -> Histogram:
        """Get or create the histogram ``name``."""
        histogram = self._histograms.get(name)
        if histogram is None:
            self._claim(name)
            histogram = self._histograms[name] = Histogram(name, boundaries)
        return histogram

    def scalars(self) -> Dict[str, float]:
        """The scalar view: every scalar under its ``extras`` key."""
        return dict(self._scalars)

    def snapshot(self) -> Dict[str, float]:
        """Scalars plus every histogram's cumulative buckets."""
        out = self.scalars()
        for histogram in self._histograms.values():
            out.update(histogram.snapshot_items())
        return out
