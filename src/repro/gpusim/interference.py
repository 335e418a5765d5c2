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
``KAPPA_RESTRICTED`` when the kernel is pinned to an SM partition *or*
is the only scattered kernel (it then simply occupies the complement of
the pinned partitions); ``KAPPA_UNRESTRICTED`` when two or more
scattered kernels interleave blocks on the same SMs.

The superlinear ``pressure^GAMMA`` (GAMMA = 2) makes a single moderate
co-runner cheap while an extreme memory hog still doubles the victim's
latency — the shape of Fig. 9(a).  The four constants are calibrated
once to Fig. 9 (``docs/calibration.md``); the engine's rate kernel and
the configuration determiner's wave predictor read them from here.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

KAPPA_UNRESTRICTED = 2.4
KAPPA_RESTRICTED = 0.56
GAMMA = 2.0
MAX_SLOWDOWN = 2.0


def slowdowns(kernels: Sequence[Tuple[float, bool]]) -> List[float]:
    """Per-kernel slowdown factors for a co-running set.

    ``kernels`` is a sequence of ``(mem_intensity, restricted)`` pairs.
    Returns a slowdown >= 1 per kernel, in order.

    Scattered (unrestricted) kernels pay the high coupling whenever
    another scattered kernel co-runs: the hardware spreads both
    kernels' blocks breadth-first across *all* SMs, so their L2
    footprints interleave everywhere even when their combined demand
    would nominally fit the GPU.
    """
    # Plain left-to-right addition, as the engine's rate kernel does:
    # sum() of floats is compensated from Python 3.12 on and could
    # differ from it in the last bit.
    total_intensity = 0.0
    num_unrestricted = 0
    for m, restricted in kernels:
        total_intensity = total_intensity + m
        if not restricted:
            num_unrestricted += 1
    result = []
    for m, restricted in kernels:
        if m < 0:
            raise ValueError("memory intensity cannot be negative")
        pressure = min(1.0, max(0.0, total_intensity - m))
        scattered_with_company = not restricted and num_unrestricted >= 2
        kappa = KAPPA_UNRESTRICTED if scattered_with_company else KAPPA_RESTRICTED
        slowdown = 1.0 + kappa * (pressure ** GAMMA) * min(1.0, m)
        result.append(min(MAX_SLOWDOWN, slowdown))
    return result
