"""The GPU hardware scheduler: SM allocation among runnable kernels.

Given the compute kernels at the heads of their device queues, the
hardware scheduler decides how many SMs each occupies.  Two policies
are provided:

* ``fair`` (default): max-min water-filling — kernels' thread blocks
  interleave at fine granularity, so equal-priority device queues share
  SMs fairly over time (the Volta+ behaviour of paper footnote 1).
  Co-run *cost* is carried by the interference model, not by starvation.

* ``fifo``: strict dispatch order — an earlier kernel occupies up to
  its full demand (and its context's SM-affinity cap) and later kernels
  get the leftovers, starving behind wide kernels.  Used for ablations
  of hardware-dispatch assumptions.

Both respect (a) a kernel never exceeds its own demand ``d%``, and
(b) the kernels of one context never jointly exceed the context's SM
affinity limit (MPS semantics).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .kernel import KernelInstance
from .stream import DeviceQueue

#: Water-fill tolerances, shared by every allocation path: a residual
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


class HardwareScheduler:
    """Allocates SM fractions to the runnable kernels of all queues."""

    def __init__(self, policy: str = "fair"):
        if policy not in ("fifo", "fair"):
            raise ValueError(f"unknown hardware policy {policy!r}")
        self.policy = policy

    def allocate(
        self,
        running: Sequence[KernelInstance],
        queues: Dict[int, DeviceQueue],
    ) -> List[Allocation]:
        """Compute the SM share of each running compute kernel.

        ``queues`` maps ``kernel.uid`` to the queue it runs in (to look
        up the context's SM limit).
        """
        if not running:
            return []
        if self.policy == "fifo":
            return self._allocate_fifo(running, queues)
        return self._allocate_fair(running, queues)

    # ------------------------------------------------------------------
    def _allocate_fifo(
        self,
        running: Sequence[KernelInstance],
        queues: Dict[int, DeviceQueue],
    ) -> List[Allocation]:
        # Blocks dispatch in kernel start order; ties (same dispatch
        # instant) break by uid, i.e. launch order — the simple fair
        # round-robin the Volta+ scheduler applies to equal-priority
        # queues (paper footnote 1).
        ordered = sorted(
            running, key=lambda k: (k.start_time if k.start_time is not None else 0.0, k.uid)
        )
        free = 1.0
        context_used: Dict[int, float] = defaultdict(float)
        allocations = []
        for kernel in ordered:
            ctx = queues[kernel.uid].context
            cap = ctx.sm_limit - context_used[ctx.context_id]
            grant = max(0.0, min(kernel.spec.sm_demand, cap, free))
            context_used[ctx.context_id] += grant
            free -= grant
            allocations.append(Allocation(kernel=kernel, sm_fraction=grant))
        return allocations

    def allocate_fair_indexed(
        self,
        rows: Sequence[tuple],
        context_ids: Sequence[int],
    ) -> List[Tuple[int, float]]:
        """Fair allocation as ``(running_index, grant)`` pairs.

        Object-free variant of :meth:`allocate` for the engine's rate
        kernel, which calls it for running sets with a shared context (it
        water-fills the one-kernel-per-context shapes inline, at any
        number of priority levels).  Kernel ``i`` is described by
        the engine's rate row ``rows[i]``, of which this reads the
        context priority (``[0]``), the SM demand (``[6]``) and the
        context limit (``[7]``), and runs in context ``context_ids[i]``.
        The returned pairs follow the identical allocation order
        (priority level descending, then context first-appearance order,
        then running order within a context) with bit-identical
        arithmetic to ``_allocate_fair``.
        """
        # Group kernels by context in first-appearance order; note on
        # the way whether a second priority level exists (rare).
        by_context: Dict[int, List[int]] = {}
        limits: Dict[int, float] = {}
        priorities: Dict[int, int] = {}
        single_level = True
        first_priority: int = 0
        for index, cid in enumerate(context_ids):
            group = by_context.get(cid)
            if group is None:
                row = rows[index]
                by_context[cid] = [index]
                limits[cid] = row[7]
                priority = row[0]
                priorities[cid] = priority
                if len(priorities) == 1:
                    first_priority = priority
                elif priority != first_priority:
                    single_level = False
            else:
                group.append(index)

        pairs: List[Tuple[int, float]] = []
        capacity = 1.0
        if single_level:
            levels = [first_priority] if priorities else []
        else:
            levels = sorted(set(priorities.values()), reverse=True)
        for level in levels:
            if single_level:
                level_cids = list(by_context)
            else:
                level_cids = [c for c, p in priorities.items() if p == level]

            # Pass 1: split each context's limit among its kernels.
            per_kernel_want: Dict[int, float] = {}
            context_want: Dict[int, float] = {}
            for cid in level_cids:
                indices = by_context[cid]
                fills = waterfill([rows[i][6] for i in indices], limits[cid])
                total = 0.0
                for index, fill in zip(indices, fills):
                    per_kernel_want[index] = fill
                    total += fill
                context_want[cid] = total

            # Pass 2: water-fill this level's contexts over what's left.
            ctx_fills = waterfill(
                [context_want[c] for c in level_cids], capacity
            )
            for cid, fill in zip(level_cids, ctx_fills):
                want = context_want[cid]
                scale = fill / want if want > 0 else 0.0
                for index in by_context[cid]:
                    grant = per_kernel_want[index] * scale
                    capacity -= grant
                    pairs.append((index, grant))
            capacity = max(0.0, capacity)
        return pairs

    def _allocate_fair(
        self,
        running: Sequence[KernelInstance],
        queues: Dict[int, DeviceQueue],
    ) -> List[Allocation]:
        by_context: Dict[int, List[KernelInstance]] = defaultdict(list)
        limits: Dict[int, float] = {}
        priorities: Dict[int, int] = {}
        for kernel in running:
            ctx = queues[kernel.uid].context
            by_context[ctx.context_id].append(kernel)
            limits[ctx.context_id] = ctx.sm_limit
            priorities[ctx.context_id] = ctx.priority

        # Higher-priority contexts (REEF-style real-time clients) are
        # satisfied first; within a priority level, fair water-filling.
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
            ctx_fills = waterfill(
                [context_want[c] for c in level_cids], capacity
            )
            for cid, fill in zip(level_cids, ctx_fills):
                want = context_want[cid]
                scale = fill / want if want > 0 else 0.0
                for kernel in by_context[cid]:
                    grant = per_kernel_want[kernel.uid] * scale
                    capacity -= grant
                    allocations.append(
                        Allocation(kernel=kernel, sm_fraction=grant)
                    )
            capacity = max(0.0, capacity)
        return allocations
