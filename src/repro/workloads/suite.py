"""The paper's workload suite (Table 2) as reusable factories.

Table 2 defines five workloads over the Table-1 applications:

=========  =====================================================
A          high load — closed-loop, interval = 1/3 solo latency
B          medium load — interval = 2/3 solo latency
C          low load — interval = 1x solo latency (matches REEF's low)
D          real-world traces (Twitter 2018, Azure Functions)
E          biased — R50 at 8/9 quota + low load, co-runner at 1/9
           quota + dense load
=========  =====================================================

plus the quota menus: seven 2-model splits, one 4-model set
(10/20/30/40%), one 8-model set (5/5/10/10/15/15/20/20%).

A workload here is a list of :class:`WorkloadBinding`s — an application
(with quota set) plus a zero-argument factory producing a *fresh*
arrival process, because arrival processes are stateful.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Sequence, Tuple

from ..apps.application import Application
from ..apps.models import MODEL_NAMES, inference_app, training_app
from .arrivals import ArrivalProcess, ClosedLoop, TraceReplay
from .traces import azure_trace, twitter_trace

# Interval factors for the closed-loop loads (fraction of solo latency).
LOAD_FACTORS = {"A": 1.0 / 3.0, "B": 2.0 / 3.0, "C": 1.0}

# Quota menus straight from Table 2.
QUOTAS_2MODEL: Tuple[Tuple[float, float], ...] = (
    (1 / 3, 2 / 3),
    (7 / 18, 11 / 18),
    (4 / 9, 5 / 9),
    (1 / 2, 1 / 2),
    (5 / 9, 4 / 9),
    (11 / 18, 7 / 18),
    (2 / 3, 1 / 3),
)
QUOTAS_4MODEL: Tuple[float, ...] = (0.10, 0.20, 0.30, 0.40)
QUOTAS_8MODEL: Tuple[float, ...] = (0.05, 0.05, 0.10, 0.10, 0.15, 0.15, 0.20, 0.20)


@dataclass(frozen=True)
class WorkloadBinding:
    """One deployed application plus its arrival-process factory."""

    app: Application
    process_factory: Callable[[], ArrivalProcess]

    def fresh_process(self) -> ArrivalProcess:
        return self.process_factory()


def estimated_solo_us(app: Application) -> float:
    """Estimated solo-run latency used to set closed-loop intervals.

    The paper measures each model's solo latency once and derives the
    request interval from it; we use the analytic solo latency (kernel
    durations plus dispatch gaps plus one launch) for the same purpose.
    """
    return app.solo_span_us + 3.0


def bind_closed_loop(
    apps: Sequence[Application],
    factor: float,
    requests: int = 20,
    jitter: float = 0.25,
    seed: int = 0,
) -> List[WorkloadBinding]:
    """Closed-loop bindings with think time = ``factor`` x solo latency.

    Clients start staggered across one interval and carry a small
    seeded think-time jitter — real clients are not phase-locked, and a
    deterministic simulator would otherwise keep identical co-located
    apps permanently synchronised (always co-active, never leaving the
    bubbles the load levels are designed to produce).

    Process factories are ``functools.partial`` objects (not lambdas)
    so the bindings themselves pickle — the cluster controller ships
    already-built bindings to pool workers when fanning GPUs out.
    """
    bindings = []
    for index, app in enumerate(apps):
        interval = factor * estimated_solo_us(app)
        start = interval * index / max(1, len(apps))
        bindings.append(
            WorkloadBinding(
                app=app,
                process_factory=partial(
                    ClosedLoop,
                    interval_us=interval,
                    max_requests=requests,
                    start_us=start,
                    jitter=jitter,
                    seed=seed + index,
                ),
            )
        )
    return bindings


def bind_load(apps: Sequence[Application], load: str, requests: int = 20) -> List[WorkloadBinding]:
    """Bind workload A, B, or C by name."""
    if load not in LOAD_FACTORS:
        raise KeyError(f"load must be one of {sorted(LOAD_FACTORS)}, got {load!r}")
    return bind_closed_loop(apps, LOAD_FACTORS[load], requests)


def bind_continuous(apps: Sequence[Application], requests: int = 20) -> List[WorkloadBinding]:
    """Fully-saturated back-to-back arrivals (§6.3 saturation check).

    A closed loop with zero think time: the next request arrives at the
    previous one's completion, so "all inference requests arrive
    continuously ... no bubbles that can be utilized".
    """
    return [
        WorkloadBinding(
            app=app,
            process_factory=partial(
                ClosedLoop, interval_us=0.0, max_requests=requests
            ),
        )
        for app in apps
    ]


def bind_trace(
    apps: Sequence[Application],
    trace: str = "twitter",
    mean_interval_factor: float = 1.5,
    duration_intervals: float = 30.0,
    seed: int = 0,
) -> List[WorkloadBinding]:
    """Workload D: replay a synthetic Twitter or Azure trace per app."""
    bindings = []
    for index, app in enumerate(apps):
        mean_interval = mean_interval_factor * estimated_solo_us(app)
        duration = duration_intervals * mean_interval
        if trace == "twitter":
            times = twitter_trace(duration, mean_interval, seed=seed + index)
        elif trace == "azure":
            times = azure_trace(duration, mean_interval, seed=seed + index)
        else:
            raise KeyError(f"trace must be 'twitter' or 'azure', got {trace!r}")
        bindings.append(
            WorkloadBinding(
                app=app,
                process_factory=partial(TraceReplay, times_us=tuple(times)),
            )
        )
    return bindings


def bind_biased(
    heavy_quota_app: Application,
    dense_app: Application,
    requests: int = 20,
) -> List[WorkloadBinding]:
    """Workload E: 8/9-quota low-load app + 1/9-quota dense app."""
    app1 = heavy_quota_app.with_quota(8 / 9, app_id=heavy_quota_app.name + "#1")
    app2 = dense_app.with_quota(1 / 9, app_id=dense_app.name + "#2")
    low_interval = 2.0 * estimated_solo_us(app1)
    return [
        WorkloadBinding(
            app=app1,
            process_factory=partial(
                ClosedLoop, interval_us=low_interval, max_requests=requests
            ),
        ),
        WorkloadBinding(
            app=app2,
            process_factory=partial(
                ClosedLoop, interval_us=0.0, max_requests=requests * 3
            ),
        ),
    ]


# ----------------------------------------------------------------------
# Application mixes used across the evaluation
# ----------------------------------------------------------------------
def symmetric_pair(model: str, quota_a: float = 0.5, quota_b: float = 0.5) -> List[Application]:
    """Two instances of the same model (the 'symmetric' deployments)."""
    base = inference_app(model)
    return [
        base.with_quota(quota_a, app_id=f"{base.name}#1"),
        base.with_quota(quota_b, app_id=f"{base.name}#2"),
    ]


def mutual_pairs() -> List[Tuple[str, str]]:
    """All 10 unordered pairs of distinct Table-1 models (load D)."""
    return list(itertools.combinations(MODEL_NAMES, 2))


def training_pair(model_a: str, model_b: str) -> List[Application]:
    """Two training apps sharing the GPU evenly (§6.3 training)."""
    first, second = training_app(model_a), training_app(model_b)
    return [
        first.with_quota(0.5, app_id=f"{first.name}#1"),
        second.with_quota(0.5, app_id=f"{second.name}#2"),
    ]


def multi_app_mix(count: int) -> List[Application]:
    """The 4- or 8-application mixes of Fig. 15 with Table-2 quotas."""
    if count == 4:
        quotas = QUOTAS_4MODEL
        models = ["VGG", "R50", "R101", "BERT"]
    elif count == 8:
        quotas = QUOTAS_8MODEL
        models = ["VGG", "R50", "R101", "BERT"] * 2
    else:
        raise ValueError(f"multi-app mix supports 4 or 8 apps, got {count}")
    apps = []
    for index, (model, quota) in enumerate(zip(models, quotas)):
        base = inference_app(model)
        apps.append(base.with_quota(quota, app_id=f"{base.name}#{index}"))
    return apps
