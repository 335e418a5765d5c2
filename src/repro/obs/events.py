"""The trace-event taxonomy of the observability layer.

Every observable moment of a serving run — kernel completions, the
scheduler's squad/configuration decisions, Semi-SP phase transitions,
and the fault/degradation machinery — is recorded as one
:class:`TraceEvent` stamped with the **simulated** clock (microseconds,
the same clock every kernel executes on).  A trace is therefore a
single totally-ordered stream that can answer "what did the scheduler
believe, and what actually happened, at time t?".

Event types (see docs/observability.md for the full taxonomy table):

========================  ====================================================
type                      emitted when
========================  ====================================================
``kernel``                a kernel completes (the CUPTI-style activity record)
``request.arrived``       a request enters the serving harness
``request.done``          a request's final kernel completes
``squad.composed``        the multi-task scheduler forms a squad (§4.3):
                          members, per-app kernel counts, relative progress P̃
``config.chosen``         the determiner picks an execution configuration
                          (§4.4): Eq. 1 / NSP estimates, candidate count,
                          signature-LRU hit/miss
``config.fallback``       the quota-proportional plan replaced the determiner
                          (ablation or profile-drift bench, Fig. 20)
``squad.done``            a squad drains: predicted vs simulated duration
``semisp.switch``         a client's Semi-SP front→rear context switch (§4.5)
``context.evicted``       an idle cached MPS context was evicted (memory)
``oom.fallback``          no memory for an MPS context: entry ran NSP instead
``fault.retry``           a transient kernel failure entered retry backoff
``fault.kernel_failed``   a kernel failed permanently (retries exhausted)
``fault.kernel_killed``   a kernel was killed (request shed / context crash)
``fault.launch_failed``   a launch landed on a dead (crashed-context) queue
``fault.context_crash``   an injected MPS-context crash fired
``fault.request_shed``    the harness shed a request (failure or timeout)
``cluster.place``         the §4.2.2 controller placed an app on a GPU
``cluster.shed``          cluster admission control rejected an app (the
                          load-shedding ladder ran dry)
``cluster.migrate``       the online orchestrator moved an app between GPUs
``cluster.depart``        an application left the cluster (online mode)
``cluster.epoch``         an online serving epoch finished (per-GPU
                          utilization snapshot rides in ``args``)
``cluster.interference``  the contention-aware policy placed an app: the
                          chosen GPU, the Eq. 2 predicted slowdown next
                          to its co-residents, and the marginal cost
``cluster.cost``          a contention-aware placement round settled:
                          total assignment interference cost (and the
                          estimator's memoization hit/miss counters)
``slo.admit``             the serving gateway ruled on an arriving
                          request: admitted/degraded (deadline stamped)
                          or shed at the gate
``slo.preempt``           a best-effort squad entry was withdrawn at a
                          squad boundary for a latency-critical arrival
``slo.deadline_miss``     a latency-critical request finished past its
                          gateway deadline
========================  ====================================================

Cluster events are stamped on the **cluster clock**: epoch ``e`` starts
at the cumulative makespan of epochs ``0..e-1``, and every per-GPU
simulated timestamp inside epoch ``e`` maps to ``offset_e + ts`` (GPUs
run concurrently in cluster time, so their epoch-local clocks align).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

# Kernel activity: one record per completed kernel, on the same stream.
KERNEL = "kernel"

# Request lifecycle.
REQUEST_ARRIVED = "request.arrived"
REQUEST_DONE = "request.done"

# Scheduler decisions.
SQUAD_COMPOSED = "squad.composed"
CONFIG_CHOSEN = "config.chosen"
CONFIG_FALLBACK = "config.fallback"
SQUAD_DONE = "squad.done"
SEMISP_SWITCH = "semisp.switch"
CONTEXT_EVICTED = "context.evicted"
OOM_FALLBACK = "oom.fallback"

# Fault / degradation machinery.
FAULT_RETRY = "fault.retry"
FAULT_KERNEL_FAILED = "fault.kernel_failed"
FAULT_KERNEL_KILLED = "fault.kernel_killed"
FAULT_LAUNCH_FAILED = "fault.launch_failed"
FAULT_CONTEXT_CRASH = "fault.context_crash"
FAULT_REQUEST_SHED = "fault.request_shed"

# Multi-GPU orchestration (§4.2.2 central controller).
CLUSTER_PLACE = "cluster.place"
CLUSTER_SHED = "cluster.shed"
CLUSTER_MIGRATE = "cluster.migrate"
CLUSTER_DEPART = "cluster.depart"
CLUSTER_EPOCH = "cluster.epoch"
CLUSTER_INTERFERENCE = "cluster.interference"
CLUSTER_COST = "cluster.cost"

# SLO serving gateway (admission, preemption, deadlines).
SLO_ADMIT = "slo.admit"
SLO_PREEMPT = "slo.preempt"
SLO_DEADLINE_MISS = "slo.deadline_miss"

#: Every decision/fault event type (``kernel`` records live alongside).
DECISION_TYPES = (
    REQUEST_ARRIVED,
    REQUEST_DONE,
    SQUAD_COMPOSED,
    CONFIG_CHOSEN,
    CONFIG_FALLBACK,
    SQUAD_DONE,
    SEMISP_SWITCH,
    CONTEXT_EVICTED,
    OOM_FALLBACK,
    FAULT_RETRY,
    FAULT_KERNEL_FAILED,
    FAULT_KERNEL_KILLED,
    FAULT_LAUNCH_FAILED,
    FAULT_CONTEXT_CRASH,
    FAULT_REQUEST_SHED,
    CLUSTER_PLACE,
    CLUSTER_SHED,
    CLUSTER_MIGRATE,
    CLUSTER_DEPART,
    CLUSTER_EPOCH,
    CLUSTER_INTERFERENCE,
    CLUSTER_COST,
    SLO_ADMIT,
    SLO_PREEMPT,
    SLO_DEADLINE_MISS,
)


@dataclass(frozen=True)
class TraceEvent:
    """One event on the unified observability stream.

    ``ts_us`` is the simulated clock at emission — for ``kernel``
    records it is the completion time (the record's ``args`` carry the
    enqueue/start/finish triple).  ``app_id`` is empty for global
    events (context crashes, squad boundaries).  ``args`` is a flat,
    JSON-serialisable mapping of event-specific detail.
    """

    ts_us: float
    etype: str
    app_id: str = ""
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def is_kernel(self) -> bool:
        return self.etype == KERNEL

    @property
    def is_fault(self) -> bool:
        return self.etype.startswith("fault.")

    @property
    def is_cluster(self) -> bool:
        return self.etype.startswith("cluster.")

    def to_json_dict(self) -> Dict[str, Any]:
        """Flat dict for JSON-lines export (stable key order)."""
        out: Dict[str, Any] = {"ts_us": self.ts_us, "type": self.etype}
        if self.app_id:
            out["app_id"] = self.app_id
        if self.args:
            out["args"] = self.args
        return out
