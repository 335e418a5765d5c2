"""Request progress perception (§4.3.1).

The multi-task scheduler paces every active request against its
isolated-latency plan: a request provisioned ``n%`` of the GPU should,
``t`` microseconds after arrival, have completed the kernels that the
profiled solo run at ``n%`` would have completed by ``t``.

We express a request's state in two related forms:

* its *lag* behind the plan, ``(elapsed - tau[n%][k]) / T_ref`` —
  positive when the request has received less service than promised;
* its *deadline risk*, derived from the laxity against
  ``arrival + T_ref`` assuming a blend of quota-pace and whole-GPU
  service for the remainder.

``T_ref`` is the ISO latency ``T[n%]`` — or the QoS target when SLO
mode is active (§6.5: "replacing the isolated latency T[n%] with the
required QoS target").  The squad generator orders requests by
:meth:`RequestProgress.urgency` (deadline risk plus a bounded
finish-early bonus); this realises the same compensation the paper's
relative progress ``P̃ = P_r / P_e`` ordering provides — endangered
requests are fed first — while letting genuinely-slack capacity finish
the most-progressed request early (bubble squeezing) and letting SLO
targets slot in directly.
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from typing import Optional

from ..apps.application import Request
from .profiler import AppProfile


@dataclass
class RequestProgress:
    """Scheduler-side view of one active request."""

    request: Request
    profile: AppProfile
    partition: int           # quota mapped to the nearest partition index
    t_ref_us: float          # T[n%] or the SLO target

    def __post_init__(self) -> None:
        if self.t_ref_us <= 0:
            raise ValueError("reference latency must be positive")

    @property
    def scheduled(self) -> int:
        """Index of the next kernel to schedule."""
        return self.request.next_kernel

    @property
    def exhausted(self) -> bool:
        return self.request.all_scheduled

    def tau_scheduled(self) -> float:
        """Plan time consumed by the kernels scheduled so far."""
        if self.scheduled == 0:
            return 0.0
        return self.profile.tau(self.partition, self.scheduled - 1)

    def lag(self, now: float) -> float:
        """How far behind the ISO/SLO plan this request is (normalised).

        Positive: the request is owed service.  Negative: it is running
        ahead of its promise.
        """
        elapsed = max(0.0, now - self.request.arrival_time)
        return (elapsed - self.tau_scheduled()) / self.t_ref_us

    def remaining_full_gpu_us(self) -> float:
        """Remaining execution time if granted the whole GPU."""
        full = self.profile.num_partitions
        total = self.profile.iso_latency(full)
        done = (
            self.profile.tau(full, self.scheduled - 1) if self.scheduled else 0.0
        )
        return max(0.0, total - done)

    # Weight of the best-case (whole-GPU) service assumption when
    # projecting a request's remaining time.  1.0 assumes co-runners
    # always vacate in time (too optimistic under sustained contention);
    # 0.0 assumes only quota-pace service ever (too pessimistic, kills
    # bubble squeezing).  0.75 gives the best overall fidelity across
    # Fig. 12 adherence, Fig. 13 reductions and the saturation check.
    OPTIMISM = 0.75

    def remaining_quota_pace_us(self) -> float:
        """Remaining time at the provisioned quota's pace, scaled to the
        reference target (so SLO targets stretch the plan uniformly)."""
        done_fraction = 0.0
        if self.scheduled:
            done_fraction = self.profile.tau(
                self.partition, self.scheduled - 1
            ) / self.profile.iso_latency(self.partition)
        return self.t_ref_us * max(0.0, 1.0 - done_fraction)

    def slack_us(self, now: float) -> float:
        """Laxity against the ISO/SLO deadline.

        The remaining time blends the best case (whole GPU once
        co-runners vacate) and the guaranteed case (quota-pace service
        only), weighted by ``OPTIMISM``.  Positive slack: the request
        can afford to wait without endangering ``arrival + T_ref``.
        Negative: the promise is at risk and service is owed now.
        """
        deadline = self.request.arrival_time + self.t_ref_us
        remaining = (
            self.OPTIMISM * self.remaining_full_gpu_us()
            + (1.0 - self.OPTIMISM) * self.remaining_quota_pace_us()
        )
        return deadline - now - remaining

    # How strongly slack capacity favours the most-progressed request.
    # The bonus is bounded, so a co-runner is starved for at most
    # ~SLACK_BIAS * T_ref of plan lag before its growing lag wins the
    # comparison back — shortest-remaining-first with a fairness cap.
    SLACK_BIAS = 0.02

    def urgency(self, now: float) -> float:
        """Squad-generation priority (larger = served sooner).

        Primary term: normalised *deadline risk* — how much of the
        ISO/SLO promise is already forfeited assuming best-case service
        (``max(0, -slack) / T_ref``).  A request with positive slack
        can wait without endangering its promise, because it can catch
        up later on the whole GPU; one with negative slack is owed
        service immediately, and the laggiest such request is served
        first (the paper's compensation of lagged requests, §4.3.2, in
        deadline form so SLO targets slot in directly, §6.5).

        Secondary term: a small bounded bonus proportional to the
        request's *executed* progress, ``min(elapsed, tau)/T_ref``.
        Among unendangered requests, slack capacity flows to the
        most-progressed one so it finishes early and frees the whole
        GPU for the others (bubble squeezing).  Using executed time
        keeps the bonus at zero for freshly-arrived requests, so
        simultaneous arrivals interleave rather than one monopolising
        the squad.  The bonus caps at ``SLACK_BIAS``.
        """
        risk = max(0.0, -self.slack_us(now)) / self.t_ref_us
        elapsed = max(0.0, now - self.request.arrival_time)
        executed = min(elapsed, self.tau_scheduled())
        # Quantised so infinitesimal progress differences do not defeat
        # the squad generator's alternation tie-break; only differences
        # of >= 1/64 of the reference latency change the ordering.
        steps = math.floor(64.0 * min(1.0, executed / self.t_ref_us))
        bonus = self.SLACK_BIAS * steps / 64.0
        return risk + bonus

    def relative_progress(self, now: float) -> float:
        """The paper's ``P̃ = P_r/P_e`` (§4.3.1; smaller = more urgent).

        ``P_r`` is the request's real progress (plan time of the
        kernels scheduled so far, ``tau[n%][k]``) and ``P_e`` the
        expected progress (time elapsed since arrival), so ``P̃ = 1``
        means the request exactly tracks its quota-isolated plan and
        ``P̃ < 1`` means it is owed service.  This is the value the
        tracer records per app in ``squad.composed`` events.
        """
        elapsed = max(1e-9, now - self.request.arrival_time)
        return self.tau_scheduled() / elapsed

    def next_kernel_duration(self, partition: Optional[int] = None) -> float:
        """Profiled duration of the next unscheduled kernel."""
        if self.exhausted:
            raise RuntimeError("request fully scheduled")
        return self.profile.duration(partition or self.partition, self.scheduled)
