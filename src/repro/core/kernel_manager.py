"""Concurrent kernel manager (§4.5).

The manager owns every client's GPU contexts and realises a squad's
execution configuration:

* **NSP** — all squad kernels go to each client's default unrestricted
  context;
* **SP / Semi-SP** — the first ``c%`` of each client's squad kernels is
  launched into a pre-established MPS context restricted to the chosen
  partition; once they complete, the manager switches to the client's
  default context (charging the ~50 µs context-switch vacuum, which
  stalls only that client's queue) and launches the remaining kernels
  unrestricted so they can soak up whatever the co-runners left idle.

Restricted contexts are created lazily per (client, partition) and
cached; each creation charges the ~230 MB MPS context memory (§6.9).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..gpusim.context import ContextRegistry, GPUContext
from ..gpusim.device import OutOfMemoryError
from ..gpusim.engine import SimEngine
from ..gpusim.kernel import KernelInstance
from ..gpusim.stream import DeviceQueue
from .config import BlessConfig
from .configurator import ExecutionConfig
from .squad import KernelSquad, SquadEntry

KernelCallback = Callable[[KernelInstance], None]


@dataclass
class SquadExecution:
    """Bookkeeping for one in-flight squad."""

    squad: KernelSquad
    config: ExecutionConfig
    started_at: float
    remaining: int
    on_done: Callable[["SquadExecution"], None]
    finished_at: Optional[float] = None
    # Squad-boundary preemption bookkeeping (gateway runs only; all
    # three stay empty/zero on the default path).  ``rear_waiting``
    # holds each Semi-SP entry's rear kernel indices until they are
    # actually launched — whoever pops the entry first (the deferred
    # rear launch or a preemptor) owns those kernels.  ``preempted``
    # lists app_ids already withdrawn from this squad.  ``unconfirmed``
    # counts launch bursts still inside their launch-overhead window
    # (issued, not yet visible in a device queue) — a preemptor must
    # wait them out, since pending-queue withdrawal cannot see them.
    rear_waiting: Dict[str, List[int]] = field(default_factory=dict)
    preempted: Set[str] = field(default_factory=set)
    unconfirmed: int = 0

    @property
    def duration_us(self) -> float:
        if self.finished_at is None:
            raise RuntimeError("squad still executing")
        return self.finished_at - self.started_at


class ConcurrentKernelManager:
    """Launches squads into per-client GPU contexts."""

    def __init__(
        self,
        engine: SimEngine,
        registry: ContextRegistry,
        config: BlessConfig,
    ):
        self.engine = engine
        self.registry = registry
        self.config = config
        self._default_queue: Dict[str, DeviceQueue] = {}
        # Ordered oldest-used-first so context eviction is LRU.
        self._restricted_queue: "OrderedDict[Tuple[str, int], DeviceQueue]" = (
            OrderedDict()
        )
        self.context_switches = 0
        self.context_evictions = 0
        self.context_crashes = 0
        self.oom_fallbacks = 0
        self.peak_context_memory_mb = 0
        # Optional DecisionTracer (obs/), wired by the runtime's setup.
        self.trace = None

    # ------------------------------------------------------------------
    # Context/queue management
    # ------------------------------------------------------------------
    def register_client(self, app_id: str) -> DeviceQueue:
        """Create the client's default (unrestricted) context and queue.

        Idempotent: re-registering an already-known client (e.g. while
        recovering from a context crash) returns the existing default
        queue instead of raising, so recovery paths can call it without
        tracking registration state.
        """
        queue = self._default_queue.get(app_id)
        if queue is not None and not queue.dead:
            return queue
        context = self.registry.create(
            owner=app_id, sm_limit=1.0, label="default", charge_memory=False
        )
        queue = self.engine.create_queue(context, label=f"{app_id}/default")
        self._default_queue[app_id] = queue
        return queue

    def default_queue(self, app_id: str) -> DeviceQueue:
        return self._default_queue[app_id]

    @property
    def context_memory_mb(self) -> int:
        """Device memory currently held by cached restricted contexts."""
        return len(self._restricted_queue) * self.engine.device.spec.mps_context_mb

    def _ensure_context_memory(self) -> None:
        """Make room for one more restricted (MPS) context.

        Each restricted context pins ~``mps_context_mb`` of device
        memory (§6.9), so an unbounded (client, partition) cache can
        exhaust the GPU.  When the pool cannot fit another context,
        idle cached contexts are evicted least-recently-used first; if
        none is idle the caller gets a clear ``OutOfMemoryError``
        instead of the raw allocator message.
        """
        spec = self.engine.device.spec
        memory = self.engine.device.memory
        if memory.free_mb >= spec.mps_context_mb:
            return
        for key, queue in list(self._restricted_queue.items()):
            if not queue.empty:
                continue  # kernels in flight — not evictable
            del self._restricted_queue[key]
            self.engine.remove_queue(queue)
            self.registry.destroy(queue.context)
            self.context_evictions += 1
            if self.trace is not None:
                self.trace.emit(
                    "context.evicted",
                    key[0],
                    partition=key[1],
                    context_id=queue.context.context_id,
                )
            if memory.free_mb >= spec.mps_context_mb:
                return
        raise OutOfMemoryError(
            f"cannot create another MPS context ({spec.mps_context_mb}MB): "
            f"{memory.free_mb}MB free and all "
            f"{len(self._restricted_queue)} cached contexts are busy"
        )

    def restricted_queue(self, app_id: str, partition: int) -> DeviceQueue:
        """The client's device queue for an ``n/N``-restricted context."""
        key = (app_id, partition)
        queue = self._restricted_queue.get(key)
        if queue is None:
            self._ensure_context_memory()
            fraction = self.config.partition_fraction(partition)
            context = self.registry.create(
                owner=app_id, sm_limit=fraction, label=f"mps-{partition}"
            )
            queue = self.engine.create_queue(
                context, label=f"{app_id}/mps-{partition}"
            )
            self._restricted_queue[key] = queue
            self.peak_context_memory_mb = max(
                self.peak_context_memory_mb, self.context_memory_mb
            )
        else:
            self._restricted_queue.move_to_end(key)
        return queue

    def handle_context_crash(self, context: GPUContext) -> None:
        """Forget cached queues bonded to a crashed (torn-down) context.

        The engine has already killed the queues; this drops them from
        the cache so the next squad lazily re-creates fresh contexts,
        and re-registers the owner if its default context died too.
        """
        self.context_crashes += 1
        for key in [
            k for k, q in self._restricted_queue.items() if q.context is context
        ]:
            del self._restricted_queue[key]
        owner = context.owner
        default = self._default_queue.get(owner)
        if default is not None and default.dead:
            del self._default_queue[owner]
            self.register_client(owner)

    # ------------------------------------------------------------------
    # Squad execution
    # ------------------------------------------------------------------
    def execute_squad(
        self,
        squad: KernelSquad,
        exec_config: ExecutionConfig,
        on_kernel_finish: KernelCallback,
        on_done: Callable[[SquadExecution], None],
        preemptible: bool = False,
    ) -> SquadExecution:
        """Launch every kernel of ``squad`` per ``exec_config``.

        ``on_kernel_finish`` fires for each completed kernel (the
        runtime uses it to detect request completions); ``on_done``
        fires once when the whole squad has drained.  ``preemptible``
        turns on the gateway's squad-boundary preemption bookkeeping
        (launch confirmations, rear-slice ownership) — off by default,
        where the launch sequence is byte-identical to the historical
        path.
        """
        execution = SquadExecution(
            squad=squad,
            config=exec_config,
            started_at=self.engine.now,
            remaining=squad.total_kernels,
            on_done=on_done,
        )

        def kernel_done(kernel: KernelInstance) -> None:
            on_kernel_finish(kernel)
            execution.remaining -= 1
            if execution.remaining == 0:
                execution.finished_at = self.engine.now
                execution.on_done(execution)

        tracked = execution if preemptible else None
        for app_id, entry in squad.entries.items():
            self._launch_entry(app_id, entry, exec_config, kernel_done, tracked)
        return execution

    def preempt_squad(
        self, execution: SquadExecution, app_ids: List[str]
    ) -> Dict[str, List[int]]:
        """Withdraw the named apps' unstarted kernels from a live squad.

        Squad-boundary preemption, cooperative half: running kernels
        finish naturally; pending kernels are pulled back from the
        device queues (:meth:`SimEngine.preempt_pending`) and any
        Semi-SP rear slice still parked on the execution is claimed.
        Each withdrawn request is rewound (``next_kernel`` back to its
        first withdrawn index) so the next squad re-schedules the same
        kernels, and the squad's ``remaining`` count is settled so
        ``on_done`` still fires exactly once.  The caller must invoke
        ``execution.on_done`` itself if ``remaining`` hits zero here
        (no completion is coming to do it).

        Only valid for executions launched with ``preemptible=True``
        (otherwise in-flight launch bursts are untracked).  Returns the
        withdrawn kernel indices per app.
        """
        withdrawn: Dict[str, List[int]] = {}
        for app_id in app_ids:
            entry = execution.squad.entries.get(app_id)
            if entry is None or app_id in execution.preempted:
                continue
            removed = self.engine.preempt_pending(
                app_id, entry.request.request_id
            )
            indices = [kernel.seq for kernel, _callback in removed]
            rear = execution.rear_waiting.pop(app_id, None)
            if rear:
                indices.extend(rear)
            if not indices:
                continue
            execution.preempted.add(app_id)
            # Queue order is FIFO and squads assign contiguous index
            # windows, so the withdrawn set is exactly the entry's tail.
            entry.request.next_kernel = min(indices)
            execution.remaining -= len(indices)
            withdrawn[app_id] = sorted(indices)
        return withdrawn

    def _launch_entry(
        self,
        app_id: str,
        entry: SquadEntry,
        exec_config: ExecutionConfig,
        kernel_done: KernelCallback,
        execution: Optional[SquadExecution] = None,
    ) -> None:
        indices = entry.kernel_indices
        if exec_config.partitions is None:
            self._launch_slice(
                entry, indices, self._default_queue[app_id], kernel_done, execution
            )
            return

        partition = exec_config.partitions[app_id]
        if exec_config.rear_counts is not None:
            rear_count = min(exec_config.rear_counts.get(app_id, 0), len(indices))
            front_count = len(indices) - rear_count
        else:
            front_count = int(math.floor(self.config.split_ratio * len(indices) + 0.5))
            front_count = min(front_count, len(indices))
        front, rear = indices[:front_count], indices[front_count:]

        if not front:
            self._launch_slice(
                entry, rear, self._default_queue[app_id], kernel_done, execution
            )
            return

        try:
            restricted = self.restricted_queue(app_id, partition)
        except OutOfMemoryError:
            # Degrade rather than die: with no memory for another MPS
            # context, run the whole entry unrestricted (NSP for this
            # client only) and let a later squad retry spatial sharing.
            self.oom_fallbacks += 1
            if self.trace is not None:
                self.trace.emit(
                    "oom.fallback",
                    app_id,
                    partition=partition,
                    kernels=len(indices),
                )
            self._launch_slice(
                entry, indices, self._default_queue[app_id], kernel_done, execution
            )
            return
        if not rear:
            self._launch_slice(entry, front, restricted, kernel_done, execution)
            return

        # Semi-SP: rear kernels launch only after the restricted part
        # completes, through the default context after a context switch.
        # In preemptible mode the rear indices are parked on the
        # execution until launched, so a preemptor arriving during the
        # front slice (or the context-switch vacuum) can claim them.
        if execution is not None:
            execution.rear_waiting[app_id] = list(rear)

        def launch_rear() -> None:
            if execution is not None:
                if execution.rear_waiting.pop(app_id, None) is None:
                    return  # claimed by a preemptor meanwhile
            self._launch_slice(
                entry, rear, self._default_queue[app_id], kernel_done, execution
            )

        def front_done(kernel: KernelInstance) -> None:
            kernel_done(kernel)
            if execution is not None and app_id not in execution.rear_waiting:
                # Rear already withdrawn: no switch, no rear launch.
                return
            self.context_switches += 1
            if self.trace is not None:
                self.trace.emit(
                    "semisp.switch",
                    app_id,
                    partition=partition,
                    front_kernels=len(front),
                    rear_kernels=len(rear),
                )
            self.engine.schedule(
                self.engine.device.spec.context_switch_us, launch_rear
            )

        self._launch_slice(
            entry, front, restricted, kernel_done, execution, last_callback=front_done
        )

    def _launch_slice(
        self,
        entry: SquadEntry,
        indices: List[int],
        queue: DeviceQueue,
        kernel_done: KernelCallback,
        execution: Optional[SquadExecution] = None,
        last_callback: Optional[KernelCallback] = None,
    ) -> None:
        if not indices:
            return
        kernels = entry.request.make_kernels(indices)
        callbacks: List[Optional[KernelCallback]] = [kernel_done] * len(indices)
        if last_callback is not None:
            callbacks[-1] = last_callback
        overhead = self.engine.device.spec.kernel_launch_us
        if execution is not None and overhead > 0:
            # Mark the burst in flight until its visibility event runs.
            # The confirmation is scheduled *after* launch_batch, so its
            # event seq is larger and it fires after the kernels land in
            # the queue at the same timestamp — a preemptor observing
            # unconfirmed == 0 can trust the pending queues.
            execution.unconfirmed += 1

            def confirm() -> None:
                execution.unconfirmed -= 1

            self.engine.launch_batch(kernels, queue, callbacks=callbacks)
            self.engine.schedule(overhead, confirm)
            return
        self.engine.launch_batch(kernels, queue, callbacks=callbacks)
