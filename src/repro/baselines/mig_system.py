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
from ..workloads.suite import WorkloadBinding
from .base import SharingSystem
from .iso import serve_isolated


class MIGSystem(SharingSystem):
    """Hardware-sliced sharing via MIG instances."""

    name = "MIG"

    def setup(self) -> None:  # pragma: no cover - serve() is overridden
        raise AssertionError("MIGSystem overrides serve(); setup is unused")

    def on_request_activated(self, client) -> None:  # pragma: no cover
        raise AssertionError("MIGSystem overrides serve()")

    def serve(self, bindings: Sequence[WorkloadBinding]) -> ServingResult:
        instances = mig.assign_slices([b.app.quota for b in bindings])
        # Physically isolated: each app serves alone at its slice's
        # compute share.  MIG slices also have private bandwidth, which
        # a solo run already has.
        sliced = [
            WorkloadBinding(
                app=binding.app.with_quota(instance.sm_fraction),
                process_factory=binding.process_factory,
            )
            for binding, instance in zip(bindings, instances)
        ]
        merged = serve_isolated(self, sliced)
        reg = self.obs.registry
        reg.set("slices", sum(instance.compute_slices for instance in instances))
        merged.extras = reg.scalars()
        return merged
