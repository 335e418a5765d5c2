"""Built-in scenario components: the evaluation axes as registry keys.

Every axis PRs 3–9 built — workload suites, arrival styles, fault
plans, SLO mixes, the §6.1 system matrix, cluster placement — becomes a
named component here, so a scenario YAML can combine them without a new
experiment module.  Everything registered in this module is a plain
module-level function (or class), so component references pickle and
can be re-resolved inside pool workers.

The module is imported for its side effects by ``repro.scenarios``;
importing it twice is harmless (re-registration is last-wins on
identical factories).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..apps.application import Application, AppKind
from ..apps.models import inference_app, training_app
from ..cluster.placement import PlacementPolicy
from ..experiments.common import INFERENCE_SYSTEMS, TRAINING_SYSTEMS
from ..gateway.slo import (
    BEST_EFFORT,
    LATENCY_CRITICAL,
    SLOPolicy,
    SLOSpec,
    parse_slo_mix,
)
from ..gpusim.faults import FaultPlan
from ..workloads.arrivals import AutoregressiveLoop, TraceReplay
from ..workloads.suite import (
    WorkloadBinding,
    bind_closed_loop,
    bind_continuous,
    bind_load,
    bind_trace,
    estimated_solo_us,
    multi_app_mix,
    symmetric_pair,
    training_pair,
)
from ..workloads.traces import flash_crowd_trace
from .registry import ScenarioError, register

# Partial over module-level functions so bindings pickle (same rule as
# repro.workloads.suite).
from functools import partial


# ----------------------------------------------------------------------
# apps: application-mix factories -> List[Application]
# ----------------------------------------------------------------------
def apps_from_models(
    models: Sequence[str],
    quotas: Optional[Sequence[float]] = None,
    training: bool = False,
) -> List[Application]:
    """Deploy ``models`` with ``quotas`` (default: an even split)."""
    maker = training_app if training else inference_app
    if not models:
        raise ScenarioError(
            f"apps: 'models' must list at least one model, got {models!r}"
        )
    if quotas is None:
        quotas = [1.0 / len(models)] * len(models)
    if len(quotas) != len(models):
        raise ScenarioError(
            f"quotas ({len(quotas)}) must match models ({len(models)})"
        )
    apps = []
    for index, (model, quota) in enumerate(zip(models, quotas)):
        base = maker(model)
        apps.append(base.with_quota(quota, app_id=f"{base.name}#{index}"))
    return apps


def mixed_tenants(
    inference: Sequence[str],
    training: Sequence[str],
    inference_quota: float = 0.3,
) -> List[Application]:
    """Train + serve tenants on one GPU (the classic consolidation mix).

    Inference tenants split ``inference_quota`` evenly; training
    tenants share the remainder.  Training work is dense and long —
    the bubbles it leaves are what the co-located inference apps
    harvest.
    """
    if not inference or not training:
        raise ScenarioError("mixed_tenants needs both inference and training apps")
    if not 0.0 < inference_quota < 1.0:
        raise ScenarioError("inference_quota must be in (0, 1)")
    apps = []
    per_inference = inference_quota / len(inference)
    for index, model in enumerate(inference):
        base = inference_app(model)
        apps.append(
            base.with_quota(per_inference, app_id=f"{base.name}#serve{index}")
        )
    per_training = (1.0 - inference_quota) / len(training)
    for index, model in enumerate(training):
        base = training_app(model)
        apps.append(
            base.with_quota(per_training, app_id=f"{base.name}#train{index}")
        )
    return apps


register("apps", "models", apps_from_models)
register("apps", "multi_app_mix", multi_app_mix)
register("apps", "symmetric_pair", symmetric_pair)
register("apps", "training_pair", training_pair)
register("apps", "mixed_tenants", mixed_tenants)


# ----------------------------------------------------------------------
# arrivals: binders (apps, **kwargs) -> List[WorkloadBinding]
# ----------------------------------------------------------------------
def bind_autoregressive(
    apps: Sequence[Application],
    factor: float = 1.0,
    requests: int = 8,
    tail_shape: float = 1.8,
    tail_mean: float = 3.0,
    tail_cap: float = 50.0,
    seed: int = 0,
) -> List[WorkloadBinding]:
    """LLM-style closed loop with a heavy autoregressive decode tail.

    Base think time = ``factor`` x estimated solo latency, scaled per
    request by a seeded Pareto multiplier (see
    :class:`~repro.workloads.arrivals.AutoregressiveLoop`).  Clients
    start staggered across one base interval, mirroring
    ``bind_closed_loop``.
    """
    bindings = []
    for index, app in enumerate(apps):
        interval = factor * estimated_solo_us(app)
        start = interval * index / max(1, len(apps))
        bindings.append(
            WorkloadBinding(
                app=app,
                process_factory=partial(
                    AutoregressiveLoop,
                    interval_us=interval,
                    max_requests=requests,
                    start_us=start,
                    tail_shape=tail_shape,
                    tail_mean=tail_mean,
                    tail_cap=tail_cap,
                    seed=seed + index,
                ),
            )
        )
    return bindings


def bind_flash_crowd(
    apps: Sequence[Application],
    mean_interval_factor: float = 2.0,
    duration_intervals: float = 30.0,
    spike_start_frac: float = 0.4,
    spike_duration_frac: float = 0.15,
    spike_magnitude: float = 8.0,
    seed: int = 0,
) -> List[WorkloadBinding]:
    """Open-loop flash-crowd replay: calm baseline, one traffic spike."""
    bindings = []
    for index, app in enumerate(apps):
        mean_interval = mean_interval_factor * estimated_solo_us(app)
        times = flash_crowd_trace(
            duration_intervals * mean_interval,
            mean_interval,
            seed=seed + index,
            spike_start_frac=spike_start_frac,
            spike_duration_frac=spike_duration_frac,
            spike_magnitude=spike_magnitude,
        )
        bindings.append(
            WorkloadBinding(
                app=app,
                process_factory=partial(TraceReplay, times_us=tuple(times)),
            )
        )
    return bindings


def bind_mixed(
    apps: Sequence[Application],
    factor: float = 2.0 / 3.0,
    requests: int = 8,
    training_requests: Optional[int] = None,
    jitter: float = 0.25,
    seed: int = 0,
) -> List[WorkloadBinding]:
    """Mixed tenants: training runs continuously, inference closed-loop.

    Training iterations arrive back to back (a training job never
    idles); inference clients pace at ``factor`` x solo latency.  The
    per-kind request counts keep runs bounded.
    """
    training_apps = [a for a in apps if a.kind is AppKind.TRAINING]
    inference_apps = [a for a in apps if a.kind is not AppKind.TRAINING]
    bindings = bind_closed_loop(
        inference_apps, factor, requests=requests, jitter=jitter, seed=seed
    )
    bindings.extend(
        bind_continuous(
            training_apps,
            requests=training_requests if training_requests is not None else requests,
        )
    )
    # Keep the binding order aligned with the app order (training and
    # inference tenants may interleave in the mix).
    by_id = {binding.app.app_id: binding for binding in bindings}
    return [by_id[app.app_id] for app in apps]


register("arrivals", "load", bind_load)
register("arrivals", "closed_loop", bind_closed_loop)
register("arrivals", "continuous", bind_continuous)
register("arrivals", "trace", bind_trace)
register("arrivals", "autoregressive", bind_autoregressive)
register("arrivals", "flash_crowd", bind_flash_crowd)
register("arrivals", "mixed", bind_mixed)


# ----------------------------------------------------------------------
# faults: factories -> FaultPlan
# ----------------------------------------------------------------------
def fault_plan_spec(spec: str, seed: Optional[int] = None) -> FaultPlan:
    """A plan from the CLI-style spec string (``failure=0.05,...``)."""
    plan = FaultPlan.from_spec(spec)
    return plan.with_seed(seed) if seed is not None else plan


def correlated_crashes(
    at_us: float = 4_000.0,
    crashes: int = 3,
    gap_us: float = 500.0,
    kernel_failure_rate: float = 0.0,
    slowdown_rate: float = 0.0,
    seed: int = 0,
    max_retries: int = 4,
) -> FaultPlan:
    """A correlated-failure storm: ``crashes`` context teardowns in a
    tight window starting at ``at_us`` (a rack power dip, a driver
    wedge), optionally over a background transient-failure rate.

    Independent single-crash plans understate recovery cost — the
    second crash lands while the runtime is still rebuilding from the
    first; clustering them is the point of this component.
    """
    if crashes < 1:
        raise ScenarioError("correlated_crashes needs at least one crash")
    if gap_us < 0:
        raise ScenarioError("gap_us must be non-negative")
    times = tuple(at_us + index * gap_us for index in range(crashes))
    return FaultPlan(
        seed=seed,
        kernel_failure_rate=kernel_failure_rate,
        slowdown_rate=slowdown_rate,
        context_crash_times=times,
        max_retries=max_retries,
    )


register("faults", "plan", FaultPlan)
register("faults", "spec", fault_plan_spec)
register("faults", "correlated_crashes", correlated_crashes)


# ----------------------------------------------------------------------
# slo: builders (apps, **kwargs) -> SLOSpec
# ----------------------------------------------------------------------
def slo_mix(
    apps: Sequence[Application], classes: str, preempt: bool = True
) -> SLOSpec:
    """The CLI ``--slo-mix`` grammar over the scenario's app mix."""
    spec = parse_slo_mix(classes, [app.app_id for app in apps])
    if spec.preempt != preempt:
        spec = SLOSpec(policies=spec.policies, preempt=preempt)
    return spec


def slo_alternating(
    apps: Sequence[Application],
    deadline_factor: float = 3.0,
    preempt: bool = True,
) -> SLOSpec:
    """Alternate latency-critical / best-effort across the app mix."""
    policies: Dict[str, SLOPolicy] = {
        app.app_id: SLOPolicy(
            slo_class=LATENCY_CRITICAL if index % 2 == 0 else BEST_EFFORT,
            deadline_factor=deadline_factor,
        )
        for index, app in enumerate(apps)
    }
    return SLOSpec(policies=policies, preempt=preempt)


register("slo", "mix", slo_mix)
register("slo", "alternating", slo_alternating)


# ----------------------------------------------------------------------
# system + placement: the comparison matrix and the cluster policies
# ----------------------------------------------------------------------
for _name, _factory in {**TRAINING_SYSTEMS, **INFERENCE_SYSTEMS}.items():
    register("system", _name, _factory)
for _policy in PlacementPolicy:
    register("placement", _policy.value, _policy)
