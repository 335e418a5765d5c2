"""Request arrival processes for client applications.

The paper's workloads (Table 2) use two arrival styles:

* **closed-loop** (loads A/B/C/E): each application issues its next
  request a fixed interval after the previous one, but never while the
  previous request is still in flight;
* **trace replay** (load D): arrival timestamps come from a recorded
  trace and do not depend on completions (open loop).

Both are expressed through one small interface so the serving loops in
``repro.core.runtime`` and ``repro.baselines`` are arrival-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Protocol, Sequence


class ArrivalProcess(Protocol):
    """Produces successive request arrival times for one application.

    ``first_arrival`` is a *restart*: calling it again rewinds the
    process (including any internal RNG) to its initial state, so the
    same object yields the same sequence whether it is drained up front
    (:func:`drain_process`) or pulled one arrival at a time by the
    serving gateway.  Incremental consumers rely on this byte-identity.
    """

    def first_arrival(self) -> Optional[float]:
        """Arrival time of the first request, or None for no requests."""
        ...

    def next_arrival(
        self, prev_arrival: float, prev_completion: float
    ) -> Optional[float]:
        """Arrival time of the next request, or None when exhausted."""
        ...


@dataclass
class ClosedLoop:
    """Closed-loop arrivals with a fixed think time.

    Request *i+1* arrives at ``completion_i + interval`` — the paper's
    "interval between requests is set to 1/3, 2/3, 1 of each model's
    solo-run latency" (closed loop, so a client never has two requests
    in flight, and a lower interval means a denser load).  The idle gap
    between a completion and the next arrival is exactly the GPU bubble
    BLESS exists to squeeze.
    """

    interval_us: float
    max_requests: int
    start_us: float = 0.0
    # Relative think-time jitter: each gap is interval * U(1-j, 1+j).
    # A little jitter mirrors real client timing noise and prevents the
    # artificial phase-locking a deterministic simulator would produce
    # for identical co-located apps (permanently-synchronised requests
    # would never leave a bubble at any load level).
    jitter: float = 0.0
    seed: int = 0
    _issued: int = field(default=0, init=False)
    _rng: object = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.interval_us < 0:
            raise ValueError("interval must be non-negative")
        if self.max_requests < 0:
            raise ValueError("max_requests must be non-negative")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.jitter > 0.0:
            import numpy as np

            self._rng = np.random.default_rng(self.seed)

    def _next_interval(self) -> float:
        if self._rng is None:
            return self.interval_us
        return self.interval_us * (1.0 + self.jitter * (2.0 * self._rng.random() - 1.0))

    def first_arrival(self) -> Optional[float]:
        if self.max_requests == 0:
            return None
        # Full restart: rewind the jitter RNG along with the issue
        # counter, otherwise a process drained once (e.g. for offered-
        # request estimation) replays a *different* jitter sequence the
        # second time — drain-vs-incremental identity would break.
        self._issued = 1
        if self.jitter > 0.0:
            import numpy as np

            self._rng = np.random.default_rng(self.seed)
        return self.start_us

    def next_arrival(
        self, prev_arrival: float, prev_completion: float
    ) -> Optional[float]:
        if self._issued >= self.max_requests:
            return None
        self._issued += 1
        return prev_completion + self._next_interval()


@dataclass
class AutoregressiveLoop:
    """LLM-style closed loop with a heavy-tailed autoregressive gap.

    Interactive LLM serving is closed-loop — the client reads the
    previous response before issuing the next prompt — but the gap is
    dominated by the *decode length* of that response, and output token
    counts are famously heavy-tailed (most responses are short, a few
    run for thousands of tokens).  Each think gap here is
    ``interval_us`` scaled by a seeded Pareto multiplier:

    ``gap = interval_us * min(tail_cap, 1 + X)``, with ``X`` Lomax
    (``numpy`` Pareto) of shape ``tail_shape`` scaled so the multiplier
    has mean ``tail_mean``.  Shape <= 1 would have an infinite mean, so
    ``tail_shape`` must exceed 1; smaller shapes mean heavier tails.
    The resulting stream alternates quick conversational bursts with
    long silent stretches — exactly the bubble structure spatial-
    temporal sharing exists to harvest.

    Like every arrival process, :meth:`first_arrival` is a full
    restart: the RNG rewinds with the issue counter, so draining and
    incremental replay are byte-identical.
    """

    interval_us: float
    max_requests: int
    start_us: float = 0.0
    tail_shape: float = 1.8
    tail_mean: float = 3.0
    tail_cap: float = 50.0
    seed: int = 0
    _issued: int = field(default=0, init=False)
    _rng: object = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.interval_us < 0:
            raise ValueError("interval must be non-negative")
        if self.max_requests < 0:
            raise ValueError("max_requests must be non-negative")
        if self.tail_shape <= 1.0:
            raise ValueError("tail_shape must be > 1 (finite-mean tail)")
        if self.tail_mean < 1.0:
            raise ValueError("tail_mean must be >= 1")
        if self.tail_cap < self.tail_mean:
            raise ValueError("tail_cap must be >= tail_mean")
        self._reset_rng()

    def _reset_rng(self) -> None:
        import numpy as np

        self._rng = np.random.default_rng(self.seed)

    def _multiplier(self) -> float:
        # E[Lomax(shape)] = 1 / (shape - 1); scale it so the full
        # multiplier 1 + scale * X has mean tail_mean.
        scale = (self.tail_mean - 1.0) * (self.tail_shape - 1.0)
        draw = 1.0 + scale * float(self._rng.pareto(self.tail_shape))
        return min(self.tail_cap, draw)

    def first_arrival(self) -> Optional[float]:
        if self.max_requests == 0:
            return None
        self._issued = 1
        self._reset_rng()
        return self.start_us

    def next_arrival(
        self, prev_arrival: float, prev_completion: float
    ) -> Optional[float]:
        if self._issued >= self.max_requests:
            return None
        self._issued += 1
        return prev_completion + self.interval_us * self._multiplier()


@dataclass
class TraceReplay:
    """Open-loop replay of recorded arrival timestamps."""

    times_us: Sequence[float]
    _cursor: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        times = list(self.times_us)
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("trace timestamps must be non-decreasing")
        self.times_us = times

    def first_arrival(self) -> Optional[float]:
        if not self.times_us:
            return None
        self._cursor = 1
        return float(self.times_us[0])

    def next_arrival(
        self, prev_arrival: float, prev_completion: float
    ) -> Optional[float]:
        if self._cursor >= len(self.times_us):
            return None
        time = float(self.times_us[self._cursor])
        self._cursor += 1
        return time


@dataclass
class OneShot:
    """Exactly one request at a fixed time (used by squad-level tests)."""

    at_us: float = 0.0
    _fired: bool = field(default=False, init=False)

    def first_arrival(self) -> Optional[float]:
        # Restartable like every other process: first_arrival rewinds.
        self._fired = True
        return self.at_us

    def next_arrival(
        self, prev_arrival: float, prev_completion: float
    ) -> Optional[float]:
        return None


def drain_process(process: ArrivalProcess, service_us: float) -> List[float]:
    """Materialise a process assuming each request takes ``service_us``.

    Testing helper: runs the closed-loop gating logic against a constant
    service time and returns the arrival times it would produce.
    """
    arrivals: List[float] = []
    time = process.first_arrival()
    while time is not None:
        arrivals.append(time)
        time = process.next_arrival(time, time + service_us)
    return arrivals
