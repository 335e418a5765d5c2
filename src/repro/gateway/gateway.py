"""The serving gateway: streaming admission, deadlines, accounting.

One :class:`ServingGateway` is built per ``serve()`` by the shared
harness when an :class:`~repro.gateway.slo.SLOSpec` is attached.  It
sees every request the (deterministically replayed) arrival processes
push, runs the admission ladder, stamps admitted requests with an
absolute deadline, and keeps the per-class additive counters the SLO
report derives attainment from.  All counters are plain sums, so
cluster/epoch merges (:meth:`ServingResult.merge`) aggregate them
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from ..apps.application import Application
from ..workloads.suite import estimated_solo_us
from .slo import (
    DEFAULT_POLICY,
    DEGRADE_FACTORS,
    LATENCY_CRITICAL,
    MAX_BACKLOG,
    SLO_CLASSES,
    SLOSpec,
)

#: Per-class counter names, in emission order (schema is fixed even at
#: zero so extras keys are identical across runs and merge cleanly).
_CLASS_COUNTERS = (
    "arrived",
    "admitted",
    "degraded",
    "shed_admission",
    "shed_fault",
    "completed",
    "deadline_hits",
    "deadline_misses",
)


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one gateway admission."""

    admitted: bool
    slo_class: str
    rung: int                    # -1 = clean admit, >= 0 = degrade rung
    deadline_us: Optional[float]  # absolute deadline (None when shed)
    preempt: bool                # arm squad-boundary preemption


class ServingGateway:
    """Streams requests into one system under an :class:`SLOSpec`."""

    def __init__(self, spec: SLOSpec, apps: Mapping[str, Application]):
        self.spec = spec
        self._class: Dict[str, str] = {}
        self._budget: Dict[str, float] = {}
        for app_id, app in apps.items():
            policy = spec.policy_for(app_id)
            self._class[app_id] = policy.slo_class
            self._budget[app_id] = policy.deadline_factor * estimated_solo_us(app)
        # request_id -> absolute deadline of every admitted request
        # still in flight (popped on finish/shed).
        self.deadline_of: Dict[int, float] = {}
        self.counters: Dict[str, float] = {}
        for cls in SLO_CLASSES:
            for counter in _CLASS_COUNTERS:
                self.counters[f"{counter}_{cls}"] = 0.0
        self.counters["preemptions"] = 0.0
        self.counters["preempted_kernels"] = 0.0

    def class_of(self, app_id: str) -> str:
        return self._class.get(app_id, DEFAULT_POLICY.slo_class)

    def budget_us(self, app_id: str) -> float:
        return self._budget[app_id]

    # ------------------------------------------------------------------
    # Admission (degrade -> shed ladder at request granularity)
    # ------------------------------------------------------------------
    def admit(self, app_id: str, backlog: int, now: float,
              request_id: int) -> AdmissionDecision:
        """Admit, degrade, or shed one arriving request.

        ``backlog`` is the client's depth (queued + active) *before*
        this request.  Below ``MAX_BACKLOG`` the request is admitted at
        its clean deadline budget; each unit of excess backlog burns
        one degrade rung (deadline stretched by ``1/factor``); past the
        last rung the request is shed at the gate — it never enters the
        system and the closed-loop client simply thinks again.
        """
        cls = self.class_of(app_id)
        self.counters[f"arrived_{cls}"] += 1.0
        budget = self._budget[app_id]
        if backlog < MAX_BACKLOG:
            rung = -1
        else:
            excess = backlog - MAX_BACKLOG
            if excess < len(DEGRADE_FACTORS):
                rung = excess
                budget = budget / DEGRADE_FACTORS[rung]
                self.counters[f"degraded_{cls}"] += 1.0
            else:
                self.counters[f"shed_admission_{cls}"] += 1.0
                return AdmissionDecision(
                    admitted=False, slo_class=cls, rung=-1,
                    deadline_us=None, preempt=False,
                )
        self.counters[f"admitted_{cls}"] += 1.0
        deadline = now + budget
        self.deadline_of[request_id] = deadline
        return AdmissionDecision(
            admitted=True,
            slo_class=cls,
            rung=rung,
            deadline_us=deadline,
            preempt=self.spec.preempt and cls == LATENCY_CRITICAL,
        )

    # ------------------------------------------------------------------
    # Lifecycle accounting
    # ------------------------------------------------------------------
    def on_finish(self, app_id: str, request_id: int, now: float) -> Optional[bool]:
        """Record a completion; returns True on a deadline miss.

        A deadline exactly met (``now == deadline``) counts as a hit.
        Returns None for a request the gateway never admitted (cannot
        happen through the harness; defensive).
        """
        deadline = self.deadline_of.pop(request_id, None)
        if deadline is None:
            return None
        cls = self.class_of(app_id)
        self.counters[f"completed_{cls}"] += 1.0
        if now <= deadline:
            self.counters[f"deadline_hits_{cls}"] += 1.0
            return False
        self.counters[f"deadline_misses_{cls}"] += 1.0
        return True

    def on_shed(self, app_id: str, request_id: int) -> None:
        """An *admitted* request was shed by the fault path
        (timeout/failure) — distinct from admission sheds, so the two
        never double-count: a request is either stopped at the gate
        (``shed_admission``) or lost inside (``shed_fault``), never
        both."""
        if self.deadline_of.pop(request_id, None) is None:
            return
        cls = self.class_of(app_id)
        self.counters[f"shed_fault_{cls}"] += 1.0

    def on_preempt(self, kernels: int) -> None:
        """A best-effort squad entry was withdrawn at a squad boundary."""
        self.counters["preemptions"] += 1.0
        self.counters["preempted_kernels"] += float(kernels)
