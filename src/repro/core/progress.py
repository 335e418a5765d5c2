"""Request progress perception (§4.3.1).

The multi-task scheduler paces every active request against its
isolated-latency plan: a request provisioned ``n%`` of the GPU should,
``t`` microseconds after arrival, have completed the kernels that the
profiled solo run at ``n%`` would have completed by ``t``.

``T_ref`` is the ISO latency ``T[n%]`` — or the QoS target when SLO
mode is active (§6.5: "replacing the isolated latency T[n%] with the
required QoS target").  The squad generator orders requests by
:meth:`RequestProgress.urgency`: the request's *deadline risk*, the
laxity against ``arrival + T_ref`` assuming a blend of quota-pace and
whole-GPU service for the remainder, plus a bounded finish-early
bonus.  This realises the same compensation the paper's relative
progress ``P̃ = P_r / P_e`` ordering provides — endangered requests
are fed first — while letting genuinely-slack capacity finish the
most-progressed request early (bubble squeezing) and letting SLO
targets slot in directly.

The plan
--------
Everything urgency needs except the clock and the arrival time depends
only on the app and on ``k``, the number of its kernels scheduled so
far.  The runtime therefore builds one :class:`AppPlan` per app when
its client registers, once per serve: Python lists indexed by
``k = 0..K`` holding the projected remaining time (the ``OPTIMISM``
blend) and the plan time ``tau[n%][k-1]`` consumed so far, read
straight from the profiled tables as the paper's runtime reads them.
An urgency evaluation is then two list reads and a few float
operations.  The blend is computed with the same IEEE operations, in
the same order, as evaluating it per call would, so squads are
bit-identical to the per-call formulas (kept in ``tests/`` as the
oracle).
"""

from __future__ import annotations

import math
from typing import List

from ..apps.application import Request
from .profiler import AppProfile

# Weight of the best-case (whole-GPU) service assumption when projecting
# a request's remaining time.  1.0 assumes co-runners always vacate in
# time (too optimistic under sustained contention); 0.0 assumes only
# quota-pace service ever (too pessimistic, kills bubble squeezing).
# 0.75 gives the best overall fidelity across Fig. 12 adherence,
# Fig. 13 reductions and the saturation check.
OPTIMISM = 0.75

# How strongly slack capacity favours the most-progressed request.  The
# bonus is bounded, so a co-runner is starved for at most
# ~SLACK_BIAS * T_ref of plan lag before its growing lag wins the
# comparison back — shortest-remaining-first with a fairness cap.
SLACK_BIAS = 0.02


class AppPlan:
    """One app's progress tables at its partition, indexed by ``k``.

    * ``remaining_us[k]`` — projected remaining time after ``k``
      scheduled kernels: ``OPTIMISM`` times the remaining whole-GPU
      time plus ``1 - OPTIMISM`` times the remaining quota-pace time,
      the latter scaled to ``T_ref`` (so SLO targets stretch the plan
      uniformly);
    * ``tau_us[k]`` — plan time consumed by those kernels,
      ``tau[n%][k-1]`` (0 for ``k = 0``);
    * ``solo_step_us[k]`` — kernel ``k``'s duration plus its dispatch
      gap on the whole GPU, which the solo squad budget sums.
    """

    __slots__ = ("t_ref_us", "remaining_us", "tau_us", "solo_step_us")

    def __init__(self, profile: AppProfile, partition: int, t_ref_us: float):
        if t_ref_us <= 0:
            raise ValueError("reference latency must be positive")
        self.t_ref_us = t_ref_us
        full = profile.num_partitions
        tau_full = profile.elapsed[full - 1].tolist()
        tau_part = profile.elapsed[partition - 1].tolist()
        total = tau_full[-1]
        iso = tau_part[-1]
        done_full = [0.0, *tau_full]
        done_fraction = [0.0, *(tau / iso for tau in tau_part)]
        self.remaining_us: List[float] = [
            OPTIMISM * max(0.0, total - done)
            + (1.0 - OPTIMISM) * (t_ref_us * max(0.0, 1.0 - fraction))
            for done, fraction in zip(done_full, done_fraction)
        ]
        self.tau_us: List[float] = [0.0, *tau_part]
        self.solo_step_us: List[float] = [
            duration + gap
            for duration, gap in zip(
                profile.durations[full - 1].tolist(), profile.gaps.tolist()
            )
        ]


class RequestProgress:
    """Scheduler-side view of one active request: it and its app's plan."""

    __slots__ = ("request", "plan")

    def __init__(self, request: Request, plan: AppPlan):
        self.request = request
        self.plan = plan

    @property
    def exhausted(self) -> bool:
        return self.request.all_scheduled

    def urgency(self, now: float) -> float:
        """Squad-generation priority (larger = served sooner).

        Primary term: normalised *deadline risk* — how much of the
        ISO/SLO promise is already forfeited assuming the blended
        service of the plan (``max(0, -slack) / T_ref`` with
        ``slack = arrival + T_ref - now - remaining``).  A request with
        positive slack can wait without endangering its promise,
        because it can catch up later on the whole GPU; one with
        negative slack is owed service immediately, and the laggiest
        such request is served first (the paper's compensation of
        lagged requests, §4.3.2, in deadline form so SLO targets slot
        in directly, §6.5).

        Secondary term: a small bounded bonus proportional to the
        request's *executed* progress, ``min(elapsed, tau)/T_ref``.
        Among unendangered requests, slack capacity flows to the
        most-progressed one so it finishes early and frees the whole
        GPU for the others (bubble squeezing).  Using executed time
        keeps the bonus at zero for freshly-arrived requests, so
        simultaneous arrivals interleave rather than one monopolising
        the squad.  The bonus caps at ``SLACK_BIAS``.

        The conditional expressions are ``max(0.0, x)`` and
        ``min(x, y)`` spelled out: they pick the same operand,
        signed zeros and NaNs included.
        """
        request = self.request
        plan = self.plan
        k = request.next_kernel
        t_ref = plan.t_ref_us
        arrival = request.arrival_time
        slack = arrival + t_ref - now - plan.remaining_us[k]
        risk = -slack / t_ref if slack < 0.0 else 0.0
        elapsed = now - arrival
        if not elapsed > 0.0:
            elapsed = 0.0
        tau = plan.tau_us[k]
        executed = tau if tau < elapsed else elapsed
        # Quantised so infinitesimal progress differences do not defeat
        # the squad generator's alternation tie-break; only differences
        # of >= 1/64 of the reference latency change the ordering.
        share = executed / t_ref
        steps = math.floor(64.0 * (share if share < 1.0 else 1.0))
        return risk + SLACK_BIAS * steps / 64.0

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
        return self.plan.tau_us[self.request.next_kernel] / elapsed
