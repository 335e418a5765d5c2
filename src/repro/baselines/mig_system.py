"""MIG: fixed hardware slices (§6.1).

Each client gets a physically isolated MIG instance.  Isolation removes
all interference (each slice has its own SMs, L2 and bandwidth), but
slices come only in 1/7 granularity and cannot be borrowed — a 50%
quota becomes a 3/7 = 42.9% slice, so MIG frequently *under-provisions*
relative to the promised quota and always wastes idle neighbours'
capacity.
"""

from __future__ import annotations

from typing import Sequence

from ..gpusim import mig
from ..metrics.stats import ServingResult
from ..obs import Observability
from ..workloads.suite import WorkloadBinding
from .base import SharingSystem
from .gslice import GSLICESystem


class MIGSystem(SharingSystem):
    """Hardware-sliced sharing via MIG instances."""

    name = "MIG"

    def setup(self) -> None:  # pragma: no cover - serve() is overridden
        raise AssertionError("MIGSystem overrides serve(); setup is unused")

    def on_request_activated(self, client) -> None:  # pragma: no cover
        raise AssertionError("MIGSystem overrides serve()")

    def serve(self, bindings: Sequence[WorkloadBinding]) -> ServingResult:
        instances = mig.assign_slices([b.app.quota for b in bindings])
        results = []
        for binding, instance in zip(bindings, instances):
            # Physically isolated: serve on a private engine whose
            # partition equals the slice's compute share.  MIG slices
            # also have private bandwidth, which a solo run already has.
            sliced = binding.app.with_quota(instance.sm_fraction)
            sub = GSLICESystem(
                gpu_spec=self.gpu_spec, fault_plan=self.fault_plan, slo=self.slo
            )
            results.append(
                sub.serve(
                    [WorkloadBinding(app=sliced, process_factory=binding.process_factory)]
                )
            )
        # Slices of ONE physical GPU: merge with num_slots=1.  The merge
        # layer carries every sub-engine's extras (previously only the
        # engine_* counters survived, dropping the fault accounting).
        merged = ServingResult.merge(results, system=self.name, num_slots=1)
        self.obs = Observability(self._trace_flag)
        reg = self.obs.registry
        reg.import_mapping("", merged.extras)
        reg.set("slices", sum(instance.compute_slices for instance in instances))
        merged.extras = reg.scalars()
        return merged
