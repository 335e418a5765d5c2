"""SLO classes and per-app policies for the serving gateway.

Two priority classes (Tally's scheduling contract):

* ``latency_critical`` — carries a deadline budget; the gateway tracks
  attainment and, on BLESS with preemption enabled, an arriving
  latency-critical request interrupts a running best-effort squad at
  the next squad boundary;
* ``best_effort`` — no deadline pressure; preemptible.

Everything here is a frozen, picklable dataclass so an
:class:`SLOSpec` can ride through ``system_kwargs`` into pool workers
unchanged (the cluster controller fans GPUs out over a process pool).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

LATENCY_CRITICAL = "latency_critical"
BEST_EFFORT = "best_effort"
SLO_CLASSES: Tuple[str, ...] = (LATENCY_CRITICAL, BEST_EFFORT)

#: Deadline budget as a multiple of the app's estimated solo latency.
DEFAULT_DEADLINE_FACTOR = 3.0

#: Client backlog (queued + active) at which admission degrades.
MAX_BACKLOG = 4
#: Deadline-stretch rungs of the admission ladder; the cluster
#: controller's quota ladder (``repro.cluster.online``) uses the same.
DEGRADE_FACTORS: Tuple[float, ...] = (0.75, 0.5)

_ALIASES = {
    "lc": LATENCY_CRITICAL,
    "latency_critical": LATENCY_CRITICAL,
    "be": BEST_EFFORT,
    "best_effort": BEST_EFFORT,
}


@dataclass(frozen=True)
class SLOPolicy:
    """One application's SLO contract at the gateway."""

    slo_class: str = BEST_EFFORT
    # Deadline budget = factor x estimated solo latency.
    deadline_factor: float = DEFAULT_DEADLINE_FACTOR

    def __post_init__(self) -> None:
        if self.slo_class not in SLO_CLASSES:
            raise ValueError(
                f"slo_class must be one of {SLO_CLASSES}, got {self.slo_class!r}"
            )
        if self.deadline_factor <= 0:
            raise ValueError("deadline_factor must be positive")


#: The contract of an app ``SLOSpec.policies`` does not name.
DEFAULT_POLICY = SLOPolicy()


@dataclass(frozen=True)
class SLOSpec:
    """Gateway configuration: per-app policies + the admission ladder.

    ``policies`` maps app_ids to their contracts; unknown apps fall
    back to ``DEFAULT_POLICY`` (best-effort).  Admission control reuses
    the degrade→shed ladder shape of the cluster controller at request
    granularity: a request whose client backlog has reached
    ``MAX_BACKLOG`` is first admitted *degraded* — its deadline budget
    stretched by ``1/factor`` per ``DEGRADE_FACTORS`` rung — and shed
    outright once every rung is exhausted.  (The ladder's migrate rung
    lives at cluster scope, where whole applications move between GPUs
    at epoch boundaries; a single-GPU gateway has nowhere to migrate
    to.)
    """

    policies: Mapping[str, SLOPolicy] = field(default_factory=dict)
    # Squad-boundary preemption of best-effort work on LC admission.
    preempt: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "policies", dict(self.policies))

    def policy_for(self, app_id: str) -> SLOPolicy:
        return self.policies.get(app_id, DEFAULT_POLICY)

    def slo_class(self, app_id: str) -> str:
        return self.policy_for(app_id).slo_class


def parse_slo_mix(text: str, app_ids: Sequence[str]) -> SLOSpec:
    """Build an :class:`SLOSpec` from a CLI ``--slo-mix`` string.

    Comma-separated class tokens in app order, cycled when shorter than
    the app list: ``lc,be`` marks app 0 latency-critical and app 1
    best-effort.  A token may carry a deadline factor after a colon —
    ``lc:2.0`` gives that app a 2x-solo deadline budget.
    """
    tokens = [token.strip() for token in text.split(",") if token.strip()]
    if not tokens:
        raise ValueError("empty --slo-mix")
    policies: Dict[str, SLOPolicy] = {}
    for index, app_id in enumerate(app_ids):
        token = tokens[index % len(tokens)]
        name, _, factor_text = token.partition(":")
        slo_class = _ALIASES.get(name.lower())
        if slo_class is None:
            raise ValueError(
                f"unknown SLO class {name!r} (use lc/be or the full names)"
            )
        factor = float(factor_text) if factor_text else DEFAULT_DEADLINE_FACTOR
        policies[app_id] = SLOPolicy(slo_class=slo_class, deadline_factor=factor)
    return SLOSpec(policies=policies)


def slo_rates(extras: Mapping[str, float]) -> Dict[str, float]:
    """The latency-critical class's headline rates from ``slo_*`` extras.

    ``slo_attainment`` is deadline hits over arrivals (gate-shed and
    fault-shed requests count against it, as in the SLO-attainment
    figures of serving papers); ``deadline_miss_rate`` is misses over
    completions.  Each is present only when its denominator is positive.
    """
    rates: Dict[str, float] = {}
    arrived = float(extras.get(f"slo_arrived_{LATENCY_CRITICAL}", 0.0))
    completed = float(extras.get(f"slo_completed_{LATENCY_CRITICAL}", 0.0))
    if arrived > 0.0:
        hits = float(extras.get(f"slo_deadline_hits_{LATENCY_CRITICAL}", 0.0))
        rates["slo_attainment"] = hits / arrived
    if completed > 0.0:
        misses = float(extras.get(f"slo_deadline_misses_{LATENCY_CRITICAL}", 0.0))
        rates["deadline_miss_rate"] = misses / completed
    return rates


def check_slo_accounting(
    extras: Mapping[str, float],
    offered: Optional[Mapping[str, float]] = None,
) -> Dict[str, Dict[str, float]]:
    """Per-class conservation check over a result's ``slo_*`` extras.

    For each class with any arrivals, verifies
    ``completed + shed_admission + shed_fault == arrived`` and returns
    the per-class tallies (including the residual under ``"leak"``).
    Raises ``AssertionError`` on a violated class, naming the counts —
    the invariant the cluster controller and the tests lean on.

    At cluster scope the ladder can refuse whole applications before
    any request reaches a gateway; those offered requests land in
    ``cluster_requests_shed_<class>`` (disjoint from the gateway's
    ``shed_admission`` by construction — an app is either placed or
    refused, never both).  Pass ``offered`` (class → total offered
    requests, computed from the bindings) to additionally verify
    ``arrived + shed_cluster == offered`` per class — every offered
    request is accounted exactly once across the gateway and the
    ladder.
    """
    report: Dict[str, Dict[str, float]] = {}
    for cls in SLO_CLASSES:
        arrived = float(extras.get(f"slo_arrived_{cls}", 0.0))
        shed_cluster = float(extras.get(f"cluster_requests_shed_{cls}", 0.0))
        if arrived == 0.0 and shed_cluster == 0.0:
            continue
        completed = float(extras.get(f"slo_completed_{cls}", 0.0))
        shed_admission = float(extras.get(f"slo_shed_admission_{cls}", 0.0))
        shed_fault = float(extras.get(f"slo_shed_fault_{cls}", 0.0))
        leak = arrived - completed - shed_admission - shed_fault
        report[cls] = {
            "arrived": arrived,
            "completed": completed,
            "shed_admission": shed_admission,
            "shed_fault": shed_fault,
            "shed_cluster": shed_cluster,
            "leak": leak,
        }
        if leak != 0.0:
            raise AssertionError(
                f"SLO accounting leak for {cls}: arrived={arrived} != "
                f"completed={completed} + shed_admission={shed_admission} "
                f"+ shed_fault={shed_fault}"
            )
        if offered is not None:
            expected = float(offered.get(cls, 0.0))
            report[cls]["offered"] = expected
            if arrived + shed_cluster != expected:
                raise AssertionError(
                    f"SLO offered-load leak for {cls}: "
                    f"gateway arrived={arrived} + cluster shed="
                    f"{shed_cluster} != offered={expected}"
                )
    return report
