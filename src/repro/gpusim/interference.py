"""Memory-system interference model for concurrent kernels.

The paper measures (§4.4.2, Fig. 9) on an A100:

* kernel-level slowdown from co-running with even a highly
  memory-intensive kernel stays **<= 2x** (the large L2 and HBM
  bandwidth bound the damage);
* application-level mutual-pair interference averages **~7%** when the
  apps occupy MPS SM partitions;
* most inter-SM interference is L2-cache conflict and bandwidth
  competition [76, 77], which **SM-affinity partitioning mitigates**:
  on the A100, L2 slices are physically associated with SM groups, so
  kernels pinned to disjoint SM partitions thrash each other's cache
  far less than kernels scattered across all SMs.  This is why strict
  spatial partitioning shortens a squad versus unrestricted overlap
  (Fig. 7: 8.5 ms -> 7.3 ms) and why unbounded sharing is costly.

Model: a running kernel ``k`` with memory intensity ``m_k`` co-running
with others suffers::

    slowdown_k = min(max_slowdown, 1 + kappa_k * pressure^gamma * m_k)
    pressure   = min(1, sum_{j != k} m_j)

``kappa_k`` depends on how the kernel's blocks are placed:
``kappa_restricted`` when the kernel is pinned to an SM partition *or*
is the only scattered kernel (it then simply occupies the complement of
the pinned partitions); ``kappa_unrestricted`` when two or more
scattered kernels interleave blocks on the same SMs.

The superlinear ``pressure^gamma`` (default gamma=2) makes a single
moderate co-runner cheap while an extreme memory hog still doubles the
victim's latency — the shape of Fig. 9(a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple


@dataclass(frozen=True)
class InterferenceModel:
    """L2/bandwidth contention with partition-aware coupling."""

    kappa_unrestricted: float = 2.4
    kappa_restricted: float = 0.56
    gamma: float = 2.0
    max_slowdown: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.kappa_restricted <= self.kappa_unrestricted:
            raise ValueError("need 0 <= kappa_restricted <= kappa_unrestricted")
        if self.max_slowdown < 1.0:
            raise ValueError("max_slowdown must be >= 1")
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")

    def slowdowns(
        self,
        kernels: Sequence[Tuple[float, bool]],
        total_sm_demand: float = 2.0,
    ) -> List[float]:
        """Per-kernel slowdown factors for a co-running set.

        ``kernels`` is a sequence of ``(mem_intensity, restricted)``
        pairs; ``total_sm_demand`` is the co-running set's combined SM
        demand.  Returns a slowdown >= 1 per kernel, in order.

        Scattered (unrestricted) kernels pay the high coupling whenever
        another scattered kernel co-runs: the hardware spreads both
        kernels' blocks breadth-first across *all* SMs, so their L2
        footprints interleave everywhere even when their combined
        demand would nominally fit the GPU.  (``total_sm_demand`` is
        accepted for forward compatibility but does not soften the
        coupling.)
        """
        del total_sm_demand  # kept in the signature for callers/ablations
        # Plain left-to-right addition, as the engine's rate kernel
        # does: sum() of floats is compensated from Python 3.12 on and
        # could differ from it in the last bit.
        total_intensity = 0.0
        num_unrestricted = 0
        for m, restricted in kernels:
            total_intensity = total_intensity + m
            if not restricted:
                num_unrestricted += 1
        kappa_scattered = self.kappa_unrestricted
        result = []
        for m, restricted in kernels:
            if m < 0:
                raise ValueError("memory intensity cannot be negative")
            pressure = min(1.0, max(0.0, total_intensity - m))
            scattered_with_company = not restricted and num_unrestricted >= 2
            kappa = (
                kappa_scattered if scattered_with_company else self.kappa_restricted
            )
            slowdown = 1.0 + kappa * (pressure ** self.gamma) * min(1.0, m)
            result.append(min(self.max_slowdown, slowdown))
        return result

    def solo_slowdown(self, mem_intensity: float) -> float:
        """A kernel running alone never interferes with itself."""
        return 1.0

    def pair_slowdown(
        self,
        m_self: float,
        m_other: float,
        restricted: bool = False,
        total_sm_demand: float = 2.0,
    ) -> float:
        """Convenience for two co-running kernels (Fig. 9(a) shape)."""
        values = self.slowdowns(
            [(m_self, restricted), (m_other, restricted)],
            total_sm_demand=total_sm_demand,
        )
        return values[0]
