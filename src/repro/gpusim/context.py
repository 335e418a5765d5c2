"""GPU contexts with SM affinity — the simulator's MPS analogue.

A :class:`GPUContext` mirrors a CUDA context created through
``cuCtxCreate_v3`` with an SM-affinity restriction: every kernel
launched into a device queue bonded to the context is capped to the
context's SM share.  BLESS pre-creates several contexts per client with
different restrictions and switches between them at runtime (§4.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .device import GPUDevice


@dataclass
class GPUContext:
    """A GPU context with an optional SM restriction.

    ``sm_limit`` is a fraction of the GPU in ``(0, 1]``; ``1.0`` means
    unrestricted (the default CUDA context).  ``owner`` identifies the
    client application the context was created for.
    """

    context_id: int
    owner: str
    sm_limit: float = 1.0
    label: str = ""
    # Dispatch priority: higher-priority contexts' kernels are granted
    # SMs first (REEF-style real-time clients); equal priorities share
    # fairly (the common case).
    priority: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.sm_limit <= 1.0:
            raise ValueError(f"sm_limit must be in (0, 1], got {self.sm_limit}")

    @property
    def restricted(self) -> bool:
        return self.sm_limit < 1.0

    def __hash__(self) -> int:
        return self.context_id

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GPUContext) and other.context_id == self.context_id

    def __repr__(self) -> str:  # pragma: no cover
        pct = f"{self.sm_limit:.0%}"
        return f"GPUContext(#{self.context_id} owner={self.owner!r} sm={pct})"


class ContextRegistry:
    """Creates and tracks contexts on a device, charging MPS memory.

    Each extra restricted context costs ``mps_context_mb`` of device
    memory (§6.9) — creating many contexts is not free, which is why
    BLESS pre-creates a small fixed set per client at deployment.
    """

    def __init__(self, device: GPUDevice):
        self.device = device
        self._contexts: List[GPUContext] = []

    @property
    def contexts(self) -> List[GPUContext]:
        return list(self._contexts)

    def create(
        self,
        owner: str,
        sm_limit: float = 1.0,
        label: str = "",
        charge_memory: bool = True,
        priority: int = 0,
    ) -> GPUContext:
        ctx = GPUContext(
            context_id=self.device.new_context_id(),
            owner=owner,
            sm_limit=sm_limit,
            label=label,
            priority=priority,
        )
        if charge_memory:
            self.device.memory.allocate(
                f"mps-context:{owner}:{ctx.context_id}",
                self.device.spec.mps_context_mb,
            )
        self._contexts.append(ctx)
        return ctx

    def destroy(self, ctx: GPUContext) -> None:
        self._contexts.remove(ctx)
        self.device.memory.release(f"mps-context:{ctx.owner}:{ctx.context_id}")

    def owned_by(self, owner: str) -> List[GPUContext]:
        return [c for c in self._contexts if c.owner == owner]

