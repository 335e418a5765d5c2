"""The GPU hardware scheduler: SM allocation among runnable kernels.

Given the compute kernels at the heads of their device queues, the
hardware scheduler decides how many SMs each occupies by max-min
water-filling: kernels' thread blocks interleave at fine granularity,
so equal-priority device queues share SMs fairly over time (the Volta+
behaviour of paper footnote 1).  Co-run *cost* is carried by the
interference model, not by starvation.

The allocation respects (a) a kernel never exceeds its own demand
``d%``, and (b) the kernels of one context never jointly exceed the
context's SM affinity limit (MPS semantics).

The engine rates kernels through its own inline rate kernel
(``SimEngine._compute_rates``); :func:`allocate` is the reference it
is checked against under ``validate=True`` and in the tests.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Sequence

from .kernel import KernelInstance

#: Water-fill tolerances, shared with the engine's rate kernel: a residual
#: capacity at or below ``CAPACITY_EPS`` counts as exhausted, and a
#: demand within ``SATISFIED_EPS`` of its fair share counts as
#: satisfied.
CAPACITY_EPS = 1e-12
SATISFIED_EPS = 1e-15


@dataclass(frozen=True)
class Allocation:
    """SM share granted to one running kernel."""

    kernel: KernelInstance
    sm_fraction: float


def waterfill(demands: Sequence[float], capacity: float) -> List[float]:
    """Max-min fair split of ``capacity``, never exceeding a demand.

    Each round offers every pending demand an equal share of what is
    left; demands within ``SATISFIED_EPS`` of it are granted whole and
    subtracted in index order, and when none is, the pending demands
    split the rest equally.
    """
    alloc = [0.0] * len(demands)
    remaining = capacity
    pending = range(len(demands))
    while pending and remaining > CAPACITY_EPS:
        share = remaining / len(pending)
        bar = share + SATISFIED_EPS
        above = []
        for i in pending:
            demand = demands[i]
            if demand <= bar:
                remaining -= demand
                alloc[i] = demand
            else:
                above.append(i)
        if len(above) == len(pending):
            for i in above:
                alloc[i] = share
            break
        pending = above
    return alloc


def allocate(running: Sequence[KernelInstance]) -> List[Allocation]:
    """Compute the SM share of each running compute kernel.

    Each kernel's context (SM limit and priority) is read from
    ``kernel.queue.context``.  Higher-priority contexts are satisfied
    first; within a priority level, each context's limit is water-filled
    among its kernels, then the contexts are water-filled over the
    capacity the levels above left.
    """
    by_context: Dict[int, List[KernelInstance]] = defaultdict(list)
    limits: Dict[int, float] = {}
    priorities: Dict[int, int] = {}
    for kernel in running:
        ctx = kernel.queue.context
        by_context[ctx.context_id].append(kernel)
        limits[ctx.context_id] = ctx.sm_limit
        priorities[ctx.context_id] = ctx.priority

    allocations: List[Allocation] = []
    capacity = 1.0
    for level in sorted(set(priorities.values()), reverse=True):
        level_cids = [c for c, p in priorities.items() if p == level]

        # Pass 1: split each context's limit among its kernels.
        per_kernel_want: Dict[int, float] = {}
        context_want: Dict[int, float] = {}
        for cid in level_cids:
            kernels = by_context[cid]
            fills = waterfill([k.spec.sm_demand for k in kernels], limits[cid])
            # Left to right, as the engine's rate kernel adds:
            # sum() of floats is compensated from Python 3.12 on.
            total = 0.0
            for kernel, fill in zip(kernels, fills):
                per_kernel_want[kernel.uid] = fill
                total += fill
            context_want[cid] = total

        # Pass 2: water-fill this level's contexts over what's left.
        ctx_fills = waterfill([context_want[c] for c in level_cids], capacity)
        for cid, fill in zip(level_cids, ctx_fills):
            want = context_want[cid]
            scale = fill / want if want > 0 else 0.0
            for kernel in by_context[cid]:
                grant = per_kernel_want[kernel.uid] * scale
                capacity -= grant
                allocations.append(Allocation(kernel=kernel, sm_fraction=grant))
        capacity = max(0.0, capacity)
    return allocations
