"""SLO-aware serving gateway (priority classes, admission, preemption).

The gateway sits between the arrival processes and the serving loop:
every request streams through :class:`ServingGateway` as it arrives,
is classed ``latency_critical`` or ``best_effort``
(:class:`SLOPolicy`), picks up an absolute deadline, and passes the
degrade→shed admission ladder before it may enter the system.  On
BLESS, an admitted latency-critical request additionally interrupts a
running best-effort squad at the next rate-change epoch
(:meth:`~repro.gpusim.engine.SimEngine.request_preemption` — the
squad-boundary preemption of Hummingbird, with Tally's two-class
scheduling contract).

The package is deliberately free of engine imports: it is pure
bookkeeping driven by the harness (``repro.baselines.base``), so every
sharing system — not just BLESS — can serve under an
:class:`SLOSpec`.
"""

from .gateway import AdmissionDecision, ServingGateway
from .slo import (
    BEST_EFFORT,
    LATENCY_CRITICAL,
    SLO_CLASSES,
    SLOPolicy,
    SLOSpec,
    check_slo_accounting,
    parse_slo_mix,
    slo_rates,
)

__all__ = [
    "AdmissionDecision",
    "ServingGateway",
    "BEST_EFFORT",
    "LATENCY_CRITICAL",
    "SLO_CLASSES",
    "SLOPolicy",
    "SLOSpec",
    "check_slo_accounting",
    "parse_slo_mix",
    "slo_rates",
]
