"""ISO: the quota-isolated latency target (§6.1, §6.2).

ISO is not a sharing system — it is the *promise*: each application
runs alone on an MPS partition exactly its quota wide, with no
co-runner interference.  Every sharing system is judged by how far its
per-app latency deviates above ISO's.  We realise it by serving each
binding on its own private simulated GPU.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..apps.application import Application
from ..gpusim.device import GPUSpec
from ..metrics.stats import ServingResult
from ..obs import Observability
from ..workloads.suite import WorkloadBinding
from .base import SharingSystem
from .gslice import GSLICESystem


class ISOSystem(SharingSystem):
    """Each app alone on a quota-sized MPS partition (the baseline)."""

    name = "ISO"

    def setup(self) -> None:  # pragma: no cover - never used directly
        raise AssertionError("ISOSystem overrides serve(); setup is unused")

    def on_request_activated(self, client) -> None:  # pragma: no cover
        raise AssertionError("ISOSystem overrides serve()")

    def serve(self, bindings: Sequence[WorkloadBinding]) -> ServingResult:
        return serve_isolated(self, bindings)


def serve_isolated(
    system: SharingSystem, bindings: Sequence[WorkloadBinding]
) -> ServingResult:
    """Serve each binding alone on a private engine, as ``system``.

    Each binding is served at its own quota by a private
    :class:`GSLICESystem`; the sub-results merge as slices of ONE GPU
    (num_slots=1), and the merge layer keeps every sub-engine's extras
    (fault/engine counters) so the completed + shed == arrived
    invariant holds for the composite too.  ``system.obs`` becomes a
    fresh registry holding the merged tallies, so the composite's
    extras is its registry's scalar view, as for any other system.
    """
    results = [
        GSLICESystem(
            gpu_spec=system.gpu_spec, fault_plan=system.fault_plan, slo=system.slo
        ).serve([binding])
        for binding in bindings
    ]
    merged = ServingResult.merge(results, system=system.name, num_slots=1)
    system.obs = Observability(system._trace_flag)
    system.obs.registry.import_mapping("", merged.extras)
    return merged


def iso_targets_us(
    bindings: Sequence[WorkloadBinding], gpu_spec: Optional[GPUSpec] = None
) -> Dict[str, float]:
    """Per-app ISO mean latencies under the workload (deviation targets)."""
    result = ISOSystem(gpu_spec=gpu_spec).serve(bindings)
    return result.per_app_mean_latency()


def solo_latency_us(
    app: Application,
    sm_fraction: float = 1.0,
    gpu_spec: Optional[GPUSpec] = None,
) -> float:
    """Latency of one isolated request on an ``sm_fraction`` partition.

    This is the profiler's ``T[n%]`` — the paper's isolated latency
    target for an app provisioned ``n%`` of the GPU.
    """
    from ..workloads.arrivals import OneShot  # local import to avoid cycle
    from ..workloads.suite import WorkloadBinding as Binding

    deployed = app.with_quota(sm_fraction)
    binding = Binding(app=deployed, process_factory=OneShot)
    result = ISOSystem(gpu_spec=gpu_spec).serve([binding])
    return result.mean_latency(deployed.app_id)
