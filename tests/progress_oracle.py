"""The per-call urgency formulas, kept as the differential oracle.

:class:`OracleProgress` evaluates a request's progress straight from
its profile on every call — ``tau``, ``T[n%]``, the remaining-time
blend, the slack and the urgency — through one method per quantity.
``repro.core.progress`` precomputes the same quantities per app into an
:class:`~repro.core.progress.AppPlan` and reads them from lists; tests
compare the two with ``==``.
"""

import math
from dataclasses import dataclass
from typing import Optional

from repro.apps.application import Request
from repro.core.profiler import AppProfile
from repro.core.progress import OPTIMISM, SLACK_BIAS, AppPlan, RequestProgress


@dataclass
class OracleProgress:
    """One active request, evaluated formula by formula."""

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

    def remaining_quota_pace_us(self) -> float:
        """Remaining time at the provisioned quota's pace, scaled to the
        reference target."""
        done_fraction = 0.0
        if self.scheduled:
            done_fraction = self.profile.tau(
                self.partition, self.scheduled - 1
            ) / self.profile.iso_latency(self.partition)
        return self.t_ref_us * max(0.0, 1.0 - done_fraction)

    def slack_us(self, now: float) -> float:
        """Laxity against the ISO/SLO deadline under the blended
        remaining time."""
        deadline = self.request.arrival_time + self.t_ref_us
        remaining = (
            OPTIMISM * self.remaining_full_gpu_us()
            + (1.0 - OPTIMISM) * self.remaining_quota_pace_us()
        )
        return deadline - now - remaining

    def urgency(self, now: float) -> float:
        """Deadline risk plus the quantised, capped finish-early bonus."""
        risk = max(0.0, -self.slack_us(now)) / self.t_ref_us
        elapsed = max(0.0, now - self.request.arrival_time)
        executed = min(elapsed, self.tau_scheduled())
        steps = math.floor(64.0 * min(1.0, executed / self.t_ref_us))
        bonus = SLACK_BIAS * steps / 64.0
        return risk + bonus

    def relative_progress(self, now: float) -> float:
        """``P̃ = P_r/P_e``: plan time scheduled over time elapsed."""
        elapsed = max(1e-9, now - self.request.arrival_time)
        return self.tau_scheduled() / elapsed

    def next_kernel_duration(self, partition: Optional[int] = None) -> float:
        """Profiled duration of the next unscheduled kernel."""
        if self.exhausted:
            raise RuntimeError("request fully scheduled")
        return self.profile.duration(partition or self.partition, self.scheduled)

    def production(self) -> RequestProgress:
        """The same request as the runtime sees it: with its app's plan."""
        return RequestProgress(
            self.request, AppPlan(self.profile, self.partition, self.t_ref_us)
        )
