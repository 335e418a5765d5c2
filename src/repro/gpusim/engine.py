"""Discrete-event simulation engine with processor-sharing execution.

The engine advances a simulated clock (microseconds) through events:
kernel launches becoming visible to the device, kernel completions, and
arbitrary host callbacks (request arrivals, scheduler wake-ups).

Execution model
---------------
Every running compute kernel has ``remaining_work`` measured in
solo-speed microseconds.  Whenever the set of running kernels changes,
the engine re-derives each kernel's execution *rate*:

``rate = spec.rate_at(sm_share) * interference_multiplier``

where ``sm_share`` comes from the hardware scheduler's max-min fair
allocation and the interference multiplier from the memory-bandwidth
contention model.  Between state changes, work drains linearly, so the
next completion time is exact — no time-stepping error.

Memcpy kernels drain through the PCIe channel instead of the SM pool.
SYNC kernels complete immediately when they reach the queue head.

The event loop (see docs/performance.md)
----------------------------------------
Between two rate-changing events (arrival, completion, squad switch,
fault) every running kernel advances at a constant rate, so the engine
runs one loop of *rate-change epochs*:

* **three event sources** — host callbacks live on a heap with lazy
  cancellation (compacted once cancelled entries outnumber half of
  it); the next completion and each queue's gap wake-up are
  *pseudo-events* kept outside it.  One loop (``_fire_events``, behind
  both ``run`` and ``step``) merges the three by ``(time, seq)``, with
  every seq drawn from one counter;
* **ready-set dispatch** — a queue enters a dirty set when a push, a
  completion or a gap expiry may make its head actionable, and a
  dispatch pass examines only those queues; a gap wake with nothing
  else dirty starts its queue's head directly;
* **rebalance gating** — rates are a pure function of the running set,
  so a rebalance runs only when its membership changed;
* **fused epoch ticks** — a completion tick advances every running
  kernel by the epoch and sweeps the finishers in one pass, and a
  rebalance drains each kernel's work in the pass that applies its
  new rate.

A kernel carries its own device queue and completion callback
(``KernelInstance.queue`` / ``on_finish``), so the per-kernel path
does no dict bookkeeping for either.

A rebalance takes its rates from one path: a memo per membership
signature in an engine-local LRU.  A miss runs one scalar rate
kernel.  Each context has at most one live device queue
(``create_queue`` enforces it), so every running kernel is alone in its
context and the rate kernel's allocation is a water-fill of the
kernels' wants.

``validate=True`` keeps the same loop and rate path.  After every
rebalance it recomputes the rates through the reference pipeline
(``hwsched.allocate`` → ``interference.slowdowns`` →
``KernelSpec.rate_at``), asserts they equal the applied ones bit for
bit, and checks the physical invariants.

``SimEngine.counters`` exposes the event/rebalance/epoch/compaction
tallies; serving harnesses surface them in ``ServingResult.extras``
under ``engine_*`` and the results catalog ingests them per run.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

from .device import GPUDevice
from .hwsched import CAPACITY_EPS, SATISFIED_EPS, Allocation, allocate
from . import interference
from .kernel import KernelInstance, KernelKind
from .pcie import PCIeChannel
from .stream import DeviceQueue
from .context import GPUContext

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .faults import FaultInjector

EventCallback = Callable[[], None]

# Heap-compaction policy: rebuild when cancelled events outnumber live
# ones and there are enough of them to be worth an O(n) sweep.
_COMPACT_MIN_CANCELLED = 64

_NEVER_FINISHED = float("-inf")

# Bound on ``record_timeline`` segments: the timeline keeps the most
# recent ones in a ring buffer.
TIMELINE_CAPACITY = 65536

# Bound on the membership-signature -> rates memo.
_REBALANCE_CACHE_SIZE = 8192
# Only track hit recency (LRU move-to-end) once the cache could
# plausibly fill; below this nothing is evicted anyway.
_REBALANCE_CACHE_TRACK = _REBALANCE_CACHE_SIZE // 2

# The fit bound of the rate kernel: when every kernel runs at one
# priority level and the wants sum to at most this, each want is
# granted whole.  Each water-fill round then has more capacity left
# than its pending wants need, by a margin (1e-9) far above the
# rounding error of the running sums (a few ulps of 1.0), so every
# round grants at least its smallest want whole and no round splits.
_FIT_TOTAL = 1.0 - 1e-9


class _Event:
    """A scheduled callback.  Heap entries are ``(time, seq, event)``
    tuples so ordering never falls back to Python-level comparisons."""

    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(self, time: float, seq: int, callback: EventCallback):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"_Event(t={self.time:.3f}, seq={self.seq}{state})"


@dataclass
class TimelineSegment:
    """One interval of constant execution state (for figure rendering)."""

    start: float
    end: float
    # kernel uid -> (app_id, sm_fraction, rate)
    running: Dict[int, Tuple[str, float, float]]

    @property
    def busy_fraction(self) -> float:
        return min(1.0, sum(sm for (_, sm, _) in self.running.values()))


class SimEngine:
    """Processor-sharing discrete-event GPU simulator."""

    def __init__(
        self,
        device: Optional[GPUDevice] = None,
        record_timeline: bool = False,
        validate: bool = False,
        fault_injector: Optional["FaultInjector"] = None,
    ):
        self.device = device or GPUDevice()
        # Debug mode: after every rebalance, check the applied rates
        # against the reference pipeline and assert the physical
        # invariants (allocation feasibility, rate bounds).
        self.validate = validate
        # The clock at the last invariant check (validate only).
        self._checked_now = 0.0
        self.pcie = PCIeChannel()
        self.now = 0.0
        self._heap: List[Tuple[float, int, _Event]] = []
        self._event_seq = itertools.count()
        self._cancelled_in_heap = 0
        self._queues: List[DeviceQueue] = []
        # Ready set: queues whose head may have become actionable since
        # the last dispatch (push / completion / gap expiry).
        self._dirty_queues: Dict[int, DeviceQueue] = {}
        self._running_compute: List[KernelInstance] = []
        self._running_memcpy: List[KernelInstance] = []
        # Incrementally-maintained membership signature, aligned with
        # _running_compute: context_id and spec token packed into one
        # int (cheap tuple hashing on the memoized rebalance path).
        # Contexts are immutable and specs frozen, so the pair pins down
        # everything the allocation/interference pipeline reads.
        self._sig_parts: List[int] = []
        # The rate row of each running kernel (see _rate_row), aligned
        # with _running_compute: a memo miss reads it as is.
        self._running_rows: List[tuple] = []
        self._spec_tokens: Dict[int, int] = {}  # id(spec) -> token
        self._spec_refs: List[object] = []  # keep specs alive: ids stay unique
        # True whenever the running-set membership changed since the
        # last rebalance; rates are a pure function of membership, so a
        # clean flag means the previous rates (and the pending
        # completion) are still exact.
        self._running_dirty = False
        # Pseudo-events: the next completion and the queue gap wake-ups
        # live outside the heap as (time, seq) pairs the main loop
        # compares against the heap top.  Seqs come from the same
        # counter as heap events, so ties at equal times break in
        # scheduling order.
        self._completion_time = math.inf
        self._completion_seq = 0
        # queue id -> (requested ready_at, scheduled time, seq, queue)
        self._gap_wakes: Dict[int, Tuple[float, float, int, DeviceQueue]] = {}
        self._gap_min_time = math.inf
        self._gap_min_seq = 0
        self._gap_min_qid = -1
        # packed (context, spec-token) int -> rate row (see _rate_row);
        # safe to memoise because contexts never mutate their limit or
        # priority in place and specs are frozen.
        self._rate_rows: Dict[int, tuple] = {}
        self._finish_subscribers: List[Callable[[KernelInstance], None]] = []
        self._failure_subscribers: List[Callable[[KernelInstance], None]] = []
        # One-shot hooks drained at the next rate-change epoch (the
        # completion tick), between the finish sweep and re-dispatch —
        # the squad-boundary preemption points of the serving gateway.
        # Empty outside gateway runs, so the epoch loop pays only a
        # truthiness check.
        self._epoch_hooks: List[Callable[[], None]] = []
        # Fault injection (None on the default, perfect-world path).
        self._faults = fault_injector
        # Optional DecisionTracer (obs/): fault/decision events are
        # emitted only from cold branches, guarded on this attribute,
        # so the hot path is untouched when tracing is off.
        self.trace = None
        # kernel uid -> event for kernels parked in retry backoff; their
        # queue stays blocked on them until the retry (or a kill) runs.
        self._pending_retries: Dict[int, _Event] = {}
        # Memoized membership-signature -> (fractions, rates, busy).
        self._rebalance_cache: "OrderedDict[tuple, tuple]" = OrderedDict()
        # Utilization accounting: integral of busy SM fraction over time.
        self._busy_integral = 0.0
        self._busy_since = 0.0
        self._current_busy_fraction = 0.0
        self.record_timeline = record_timeline
        self.timeline: Union[List[TimelineSegment], Deque[TimelineSegment]] = (
            deque(maxlen=TIMELINE_CAPACITY) if record_timeline else []
        )
        self._pending_segment: Optional[TimelineSegment] = None
        self._kernels_completed = 0
        self._kernels_failed = 0
        self._kernels_retried = 0
        self._kernels_killed = 0
        # Hot-path diagnostics (surfaced as ServingResult engine_* extras).
        self._events_processed = 0
        self._rebalances = 0
        self._rebalances_skipped = 0
        self._rebalance_cache_hits = 0
        self._heap_compactions = 0
        self._peak_heap_size = 0
        self._gap_events_superseded = 0
        # Epoch advance tallies.
        self._epoch_batches = 0
        self._epoch_kernels_advanced = 0
        self._epoch_max_batch = 0

    # ------------------------------------------------------------------
    # Queue / context management
    # ------------------------------------------------------------------
    def create_queue(self, context: GPUContext, label: str = "") -> DeviceQueue:
        """Bond a new device queue to ``context``.

        A context holds at most one live queue, so no two running
        kernels share a context; a context freed by :meth:`remove_queue`
        or :meth:`kill_context` may take a new one.
        """
        for queue in self._queues:
            if queue.context.context_id == context.context_id:
                raise ValueError(
                    f"context {context.context_id} already has a live queue"
                    f" ({queue.label or queue.queue_id})"
                )
        queue = DeviceQueue(context=context, label=label)
        self._queues.append(queue)
        return queue

    @property
    def queues(self) -> List[DeviceQueue]:
        return list(self._queues)

    # ------------------------------------------------------------------
    # Event scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: EventCallback) -> _Event:
        """Run ``callback`` at ``now + delay`` (host-side event)."""
        if delay < 0:
            raise ValueError(f"cannot schedule event in the past (delay={delay})")
        event = _Event(self.now + delay, next(self._event_seq), callback)
        heapq.heappush(self._heap, (event.time, event.seq, event))
        if len(self._heap) > self._peak_heap_size:
            self._peak_heap_size = len(self._heap)
        return event

    def schedule_at(self, time: float, callback: EventCallback) -> _Event:
        """Run ``callback`` at ``time``, or now if ``time`` has passed."""
        return self.schedule(max(0.0, time - self.now), callback)

    def cancel(self, event: _Event) -> None:
        """Lazy-cancel: the event is dropped when popped, or swept out
        by compaction once cancelled events dominate the heap."""
        if event.cancelled:
            return
        event.cancelled = True
        self._cancelled_in_heap += 1
        if (
            self._cancelled_in_heap >= _COMPACT_MIN_CANCELLED
            and self._cancelled_in_heap * 2 > len(self._heap)
        ):
            self._compact_heap()

    def _compact_heap(self) -> None:
        # In place: the event loop holds a reference to the heap list.
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._cancelled_in_heap = 0
        self._heap_compactions += 1

    @property
    def heap_size(self) -> int:
        """Current heap length, cancelled entries included (tests)."""
        return len(self._heap)

    # ------------------------------------------------------------------
    # Kernel launch / completion
    # ------------------------------------------------------------------
    def launch(
        self,
        kernel: KernelInstance,
        queue: DeviceQueue,
        launch_overhead: Optional[float] = None,
        on_finish: Optional[Callable[[KernelInstance], None]] = None,
    ) -> None:
        """Launch ``kernel`` into ``queue``.

        The kernel becomes visible to the device after the launch
        overhead (defaults to the device's ~3us kernel launch latency).
        """
        if launch_overhead is None:
            launch_overhead = self.device.spec.kernel_launch_us
        if on_finish is not None:
            kernel.on_finish = on_finish

        def make_visible() -> None:
            if queue.dead:
                self._fail_launch([kernel])
                return
            queue.push(kernel, self.now)
            kernel.queue = queue
            self._mark_ready(queue)
            self._dispatch()

        if launch_overhead > 0:
            self.schedule(launch_overhead, make_visible)
        else:
            make_visible()

    def launch_batch(
        self,
        kernels: List[KernelInstance],
        queue: DeviceQueue,
        launch_overhead: Optional[float] = None,
        callbacks: Optional[List[Optional[Callable[[KernelInstance], None]]]] = None,
    ) -> None:
        """Launch several kernels into one queue at once.

        Equivalent to calling :meth:`launch` per kernel — the host
        issues the whole burst back to back, so all kernels become
        visible at ``now + launch_overhead`` in list order — but with a
        single visibility event instead of one per kernel.
        ``callbacks``, when given, is aligned with ``kernels`` (``None``
        entries for kernels without an ``on_finish``).
        """
        if not kernels:
            return
        if launch_overhead is None:
            launch_overhead = self.device.spec.kernel_launch_us
        if callbacks:
            for kernel, callback in zip(kernels, callbacks):
                if callback is not None:
                    kernel.on_finish = callback

        def make_visible() -> None:
            if queue.dead:
                self._fail_launch(kernels)
                return
            # queue.push per kernel, inlined.
            now = self.now
            pending = queue._pending
            for kernel in kernels:
                kernel.enqueue_time = now
                kernel.queue = queue
                pending.append(kernel)
            self._mark_ready(queue)
            self._dispatch()

        if launch_overhead > 0:
            self.schedule(launch_overhead, make_visible)
        else:
            make_visible()

    def subscribe_finish(self, callback: Callable[[KernelInstance], None]) -> None:
        """Register a callback invoked on every kernel completion."""
        self._finish_subscribers.append(callback)

    def subscribe_failure(self, callback: Callable[[KernelInstance], None]) -> None:
        """Register a callback invoked on every permanent kernel failure.

        Fires *before* the failed kernel's per-kernel callback, so a
        harness can shed the owning request first and let the identity
        guards in the per-kernel callbacks short-circuit naturally.
        """
        self._failure_subscribers.append(callback)

    def _fail_launch(self, kernels: List[KernelInstance]) -> None:
        """A launch landed on a dead (crashed-context) queue: fail it."""
        for kernel in kernels:
            kernel.failed = True
            self._kernels_failed += 1
            if self.trace is not None:
                self.trace.emit(
                    "fault.launch_failed",
                    kernel.app_id,
                    request_id=kernel.request_id,
                    seq=kernel.seq,
                    name=kernel.name,
                )
            callback = kernel.on_finish
            kernel.on_finish = None
            for subscriber in self._failure_subscribers:
                subscriber(kernel)
            if callback is not None:
                callback(kernel)

    # ------------------------------------------------------------------
    # Execution state machine
    # ------------------------------------------------------------------
    def _mark_ready(self, queue: DeviceQueue) -> None:
        """Register ``queue`` for the next dispatch pass."""
        self._dirty_queues[queue.queue_id] = queue

    def _dispatch(self) -> None:
        """Start head kernels of ready queues, then rebalance if needed.

        Only queues in the dirty set are examined; a queue enters the
        set when a push, a completion in the queue, or a gap expiry may
        have made its head actionable.  SYNC kernels complete
        immediately and re-mark their queue, so the loop drains until
        heads are stable — the fixpoint of a full scan over every
        queue, without touching idle ones.
        """
        started = False
        progressing = False
        dirty = self._dirty_queues
        # The clock only advances in the event loop, never inside a
        # dispatch pass, so ``now`` is loop-invariant here.
        now = self.now
        horizon = now + 1e-9
        while dirty:
            # Queue creation order, as a full scan would visit them.
            if len(dirty) == 1:
                batch = (dirty.popitem()[1],)
            else:
                batch = [dirty.pop(qid) for qid in sorted(dirty)]
            for queue in batch:
                # Inline queue.head()/head_ready_at()/start_head() —
                # this is the hottest loop in the engine.  The guards
                # match head(): skip busy or empty queues.
                pending = queue._pending
                if queue._running is not None or not pending:
                    continue
                head = pending[0]
                spec = head.spec
                last_finish = queue.last_finish_time
                if last_finish != _NEVER_FINISHED:
                    ready_at = last_finish + spec.dispatch_gap_us
                    if ready_at > horizon:
                        # Intra-request bubble: the host has not
                        # dispatched the next kernel yet; wake up when
                        # it does.
                        self._ensure_gap_wake(queue, ready_at)
                        continue
                if spec.kind is KernelKind.SYNC or spec.base_duration_us == 0:
                    pending.popleft()
                    head.start_time = now
                    queue._running = head
                    self._complete_kernel(queue, head)
                    progressing = True
                else:
                    self._start_head(queue, head, now)
                    started = True
        if started or progressing:
            self._maybe_rebalance()

    def _start_head(self, queue: DeviceQueue, head: KernelInstance, now: float) -> None:
        """Start ``queue``'s ready compute or memcpy head ``head``."""
        queue._pending.popleft()
        head.start_time = now
        queue._running = head
        spec = head.spec
        faults = self._faults
        if faults is not None:
            multiplier = faults.work_multiplier(head)
            if multiplier != 1.0:
                head.remaining_work = spec.base_duration_us * multiplier
        if spec.kind is KernelKind.COMPUTE:
            self._add_running(head, queue.context)
        else:  # H2D / D2H drain through the PCIe channel.
            self._running_memcpy.append(head)
            self._running_dirty = True

    def _add_running(self, kernel: KernelInstance, ctx: GPUContext) -> None:
        spec = kernel.spec
        token = self._spec_tokens.get(id(spec))
        if token is None:
            token = len(self._spec_tokens)
            self._spec_tokens[id(spec)] = token
            self._spec_refs.append(spec)
        cid = ctx.context_id
        # Tokens stay below 2**32, so the packed int is collision-free.
        part = (cid << 32) | token
        row = self._rate_rows.get(part)
        if row is None:
            row = self._rate_rows[part] = self._rate_row(kernel, ctx)
        self._running_compute.append(kernel)
        self._sig_parts.append(part)
        self._running_rows.append(row)
        self._running_dirty = True

    # -- gap wake-ups (pseudo-events) ----------------------------------
    def _ensure_gap_wake(self, queue: DeviceQueue, ready_at: float) -> None:
        """Arrange (once) a dispatch retry when a queue's gap expires.

        An earlier-or-equal pending wake is reused; a pending *later*
        wake (possible when a queue's head changes under preemption,
        e.g. REEF killing buffered kernels) is replaced.  The wake time
        uses ``schedule_at``'s ``now + max(0, ready_at - now)``
        arithmetic, and its seq comes from the event counter.
        """
        qid = queue.queue_id
        wakes = self._gap_wakes
        pending = wakes.get(qid)
        if pending is not None:
            if pending[0] <= ready_at + 1e-9:
                return
            self._gap_events_superseded += 1
        now = self.now
        delay = ready_at - now
        if delay < 0.0:
            delay = 0.0
        time = now + delay
        seq = next(self._event_seq)
        wakes[qid] = (ready_at, time, seq, queue)
        if pending is not None and qid == self._gap_min_qid:
            self._recompute_gap_min()
        elif time < self._gap_min_time or (
            time == self._gap_min_time and seq < self._gap_min_seq
        ):
            self._gap_min_time = time
            self._gap_min_seq = seq
            self._gap_min_qid = qid

    def _recompute_gap_min(self) -> None:
        best_time = math.inf
        best_seq = 0
        best_qid = -1
        for qid, entry in self._gap_wakes.items():
            time = entry[1]
            seq = entry[2]
            if time < best_time or (time == best_time and seq < best_seq):
                best_time = time
                best_seq = seq
                best_qid = qid
        self._gap_min_time = best_time
        self._gap_min_seq = best_seq
        self._gap_min_qid = best_qid

    def _discard_gap_wake(self, queue_id: int) -> None:
        """Drop a queue's pending wake (context teardown paths)."""
        if self._gap_wakes.pop(queue_id, None) is not None:
            if queue_id == self._gap_min_qid:
                self._recompute_gap_min()

    def _fire_gap_wake(self) -> None:
        """Process the earliest gap wake (clock already advanced).

        When no other queue awaits dispatch, this does the dispatch
        pass over the one woken queue: start its head, or re-arm its
        wake.  A SYNC or zero-work head, which completes on the spot
        and may unblock more, or other dirty queues take the full pass.
        """
        wakes = self._gap_wakes
        queue = wakes.pop(self._gap_min_qid)[3]
        if wakes:
            self._recompute_gap_min()
        else:
            self._gap_min_time = math.inf
            self._gap_min_seq = 0
            self._gap_min_qid = -1
        dirty = self._dirty_queues
        if dirty:
            dirty[queue.queue_id] = queue
            self._dispatch()
            return
        pending = queue._pending
        if queue._running is not None or not pending:
            return
        head = pending[0]
        spec = head.spec
        if spec.kind is KernelKind.SYNC or spec.base_duration_us == 0:
            dirty[queue.queue_id] = queue
            self._dispatch()
            return
        now = self.now
        last_finish = queue.last_finish_time
        if last_finish != _NEVER_FINISHED:
            ready_at = last_finish + spec.dispatch_gap_us
            if ready_at > now + 1e-9:
                self._ensure_gap_wake(queue, ready_at)
                return
        self._start_head(queue, head, now)
        self._rebalance()

    # -- rebalance -----------------------------------------------------
    def _maybe_rebalance(self) -> None:
        """Rebalance only when the running-set membership changed.

        Rates depend solely on membership (specs + contexts), so with an
        unchanged set the previous rates — and the pending completion —
        are still exact.  Timeline recording forces a rebalance so that
        every event opens a segment.
        """
        if self._running_dirty or self.record_timeline:
            self._rebalance()
            return
        self._rebalances_skipped += 1
        if self._completion_time == math.inf and (
            self._running_compute or self._running_memcpy
        ):
            # The previous completion tick finished nothing (epsilon
            # miss): re-arm from the current remaining work.
            self._accrue_busy_time()
            self._rearm_completion()

    def _rebalance(self) -> None:
        """Recompute rates for all running kernels and the next completion.

        The rates are memoised per membership signature.  Recency is
        only tracked once the memo is half full — below that nothing
        will be evicted, so ``move_to_end`` on every hit would be pure
        overhead.
        One apply pass per running list first drains each kernel's work
        at its old rate up to ``now`` (the busy-time accrual), then sets
        its new rate and folds its finish time into the next completion;
        arming that completion is two stores and a seq draw.
        """
        self._rebalances += 1
        now = self.now
        dt = now - self._busy_since
        if dt > 0:
            # _accrue_busy_time, less the per-kernel drain done below.
            self._busy_integral += self._current_busy_fraction * dt
            if self.record_timeline:
                self._record_segment_end()
            self._busy_since = now

        running = self._running_compute
        memcpy = self._running_memcpy
        if not running and not memcpy:
            # Idle GPU (solo-queue engines park here between a kernel's
            # completion and its successor's gap wake): nothing to rate,
            # no completion to arm, and no memo probe, so the empty set
            # never counts as a cache hit.
            self._current_busy_fraction = 0.0
            self._running_dirty = False
            if self.record_timeline:
                self._record_segment_start()
            self._completion_time = math.inf
            return

        key = tuple(self._sig_parts)
        cache = self._rebalance_cache
        cached = cache.get(key)
        if cached is not None:
            self._rebalance_cache_hits += 1
            if len(cache) >= _REBALANCE_CACHE_TRACK:
                cache.move_to_end(key)
        else:
            cached = self._compute_rates(self._running_rows)
            cache[key] = cached
            if len(cache) > _REBALANCE_CACHE_SIZE:
                cache.popitem(last=False)
        fractions, rates, busy = cached

        eta = math.inf
        if dt > 0:
            for kernel, sm, rate in zip(running, fractions, rates):
                left = kernel.remaining_work - kernel.current_rate * dt
                if not left > 0.0:
                    left = 0.0
                kernel.remaining_work = left
                kernel.current_sm_fraction = sm
                kernel.current_rate = rate
                if rate > 0:
                    finish = now + left / rate
                    if finish < eta:
                        eta = finish
        else:
            for kernel, sm, rate in zip(running, fractions, rates):
                kernel.current_sm_fraction = sm
                kernel.current_rate = rate
                if rate > 0:
                    finish = now + kernel.remaining_work / rate
                    if finish < eta:
                        eta = finish
        self._current_busy_fraction = busy
        if self.validate:
            self._validate_rates(cached)

        # Memcpy kernels share the PCIe channel.
        if memcpy:
            if dt > 0:
                for kernel in memcpy:
                    left = kernel.remaining_work - kernel.current_rate * dt
                    kernel.remaining_work = left if left > 0.0 else 0.0
            pcie_rates = self.pcie.rates(memcpy)
            for kernel in memcpy:
                rate = pcie_rates.get(kernel.uid, 0.0)
                kernel.current_rate = rate
                kernel.current_sm_fraction = 0.0
                if rate > 0:
                    finish = now + kernel.remaining_work / rate
                    if finish < eta:
                        eta = finish

        self._running_dirty = False
        if self.record_timeline:
            self._record_segment_start()
        if eta != math.inf:
            # schedule_at's arithmetic, without the event or the heap.
            delay = eta - now
            if delay < 0.0:
                delay = 0.0
            self._completion_time = now + delay
            self._completion_seq = next(self._event_seq)
        else:
            self._completion_time = math.inf

    # -- the rate kernel -----------------------------------------------
    def _rate_row(self, kernel: KernelInstance, ctx: GPUContext) -> tuple:
        """The rate kernel's inputs for one (context, spec) part.

        ``(priority, restricted, want, mem_intensity, serial_fraction,
        base_duration_us, sm_demand, sm_limit, solo)``: ``want`` is the
        demand clamped by the context limit, the first-pass water-fill
        of a context running one kernel (same tolerances and operations
        as ``hwsched.waterfill``), and ``solo`` is ``spec.rate_at(want)``
        (0.0 for a zero want), the rate before slowdown of a kernel
        granted its whole want.  Context identity stays out of the row,
        in the packed ``_sig_parts`` int.
        """
        spec = kernel.spec
        cap = ctx.sm_limit
        demand = spec.sm_demand
        serial = spec.serial_fraction
        base = spec.base_duration_us
        if cap <= CAPACITY_EPS:
            want = 0.0
        else:
            want = demand if demand <= cap + SATISFIED_EPS else cap
        solo = 0.0
        if want > 0:
            usable = demand if demand < want else want
            solo = base / (base * (serial + (1.0 - serial) * (demand / usable)))
        return (
            ctx.priority,
            ctx.restricted,
            want,
            spec.mem_intensity,
            serial,
            base,
            demand,
            cap,
            solo,
        )

    def _compute_rates(
        self, rows: List[tuple]
    ) -> Tuple[Tuple[float, ...], Tuple[float, ...], float]:
        """Allocation → slowdown → rate over the running set's rows.

        Every kernel runs in its own context (``create_queue`` allows
        one live queue per context), so a context's first pass grants
        its one kernel the row's want and the allocation is a
        water-fill of the rows' wants per priority level, done inline.
        On one level a set whose wants fit, or all clear the first
        round's bar, skips it: each want is granted whole.  Reproduces
        :meth:`_reference_rates` bit for bit: the same IEEE operations
        in the same order.  Returns per-kernel SM fractions and rates
        aligned with ``_running_compute``, plus the busy fraction.
        """
        n = len(rows)
        if n == 0:
            return (), (), 0.0
        # The busy fraction, total intensity and scattered count of the
        # active subset (grant > 0), summed in allocation order as the
        # reference does.  On one level, every want is granted whole
        # when they fit (sum to at most _FIT_TOTAL) or when all clear
        # the first round's bar, so sum for that case first, in running
        # order.
        busy = 0.0
        total_intensity = 0.0
        num_unrestricted = 0
        wants = []
        priority = rows[0][0]
        one_level = True
        for row in rows:
            want = row[2]
            wants.append(want)
            if want > 0:
                busy += want
                total_intensity += row[3]
                if not row[1]:
                    num_unrestricted += 1
            if row[0] != priority:
                one_level = False
        if one_level and (
            busy <= _FIT_TOTAL or max(wants) <= 1.0 / n + SATISFIED_EPS
        ):
            grants = wants
        else:
            # Water-fill each level over the capacity the levels above
            # left, highest priority first.  Fills start at 0.0, so a
            # round's satisfied wants are granted whole (their context
            # scale is exactly 1.0) and subtracted in index order; when
            # no want clears the bar, the rest split it and scale back
            # through their context as ``want * (share / want)``.
            # Wants never reached keep 0.0.
            if one_level:
                levels = [range(n)]
            else:
                levels = [
                    [i for i in range(n) if rows[i][0] == level]
                    for level in sorted({row[0] for row in rows}, reverse=True)
                ]
            grants = [0.0] * n
            capacity = 1.0
            for level in levels:
                pending = level
                remaining = capacity
                while pending and remaining > CAPACITY_EPS:
                    share = remaining / len(pending)
                    bar = share + SATISFIED_EPS
                    above = []
                    for i in pending:
                        want = wants[i]
                        if want <= bar:
                            remaining -= want
                            grants[i] = want
                        else:
                            above.append(i)
                    if len(above) == len(pending):
                        for i in above:
                            want = wants[i]
                            grants[i] = want * (share / want)
                        break
                    pending = above
                if not one_level:
                    for i in level:
                        capacity -= grants[i]
                    if not capacity > 0.0:
                        capacity = 0.0
            busy = 0.0
            total_intensity = 0.0
            num_unrestricted = 0
            for level in levels:
                for index in level:
                    grant = grants[index]
                    if grant > 0:
                        busy += grant
                        row = rows[index]
                        total_intensity += row[3]
                        if not row[1]:
                            num_unrestricted += 1

        kappa_restricted = interference.KAPPA_RESTRICTED
        kappa_scattered = (
            interference.KAPPA_UNRESTRICTED
            if num_unrestricted >= 2
            else kappa_restricted
        )
        gamma = interference.GAMMA
        max_slowdown = interference.MAX_SLOWDOWN
        rates = []
        # The conditionals below are the min()/max() calls of the
        # reference, with the same operand order on ties.
        for row, grant in zip(rows, grants):
            if not grant > 0:
                rates.append(0.0)
                continue
            m = row[3]
            pressure = total_intensity - m
            if not pressure > 0.0:
                pressure = 0.0
            elif not pressure < 1.0:
                pressure = 1.0
            kappa = kappa_restricted if row[1] else kappa_scattered
            slowdown = 1.0 + kappa * (pressure ** gamma) * (m if m < 1.0 else 1.0)
            if not slowdown < max_slowdown:
                slowdown = max_slowdown
            if grant == row[2]:
                # Granted its whole want: spec.rate_at(grant) is the
                # row's solo rate.
                rates.append(row[8] / slowdown)
            else:
                # spec.rate_at(grant), inlined.
                serial = row[4]
                base = row[5]
                demand = row[6]
                usable = demand if demand < grant else grant
                duration = base * (serial + (1.0 - serial) * (demand / usable))
                rates.append(base / duration / slowdown)
        return tuple(grants), tuple(rates), busy if busy < 1.0 else 1.0

    # -- the reference pipeline (validate) -----------------------------
    def _reference_rates(self) -> Tuple[tuple, List[Allocation]]:
        """The running set's rates through the reference pipeline.

        ``hwsched.allocate`` → ``interference.slowdowns`` →
        ``KernelSpec.rate_at``, one kernel at a time.  Returns the
        ``(fractions, rates, busy)`` triple in the rate kernel's layout,
        plus the allocations for the invariant checks.
        """
        running = self._running_compute
        allocations = allocate(running)
        active = [a for a in allocations if a.sm_fraction > 0]
        slowdowns = interference.slowdowns(
            [
                (a.kernel.spec.mem_intensity, a.kernel.queue.context.restricted)
                for a in active
            ]
        )
        position = {kernel.uid: i for i, kernel in enumerate(running)}
        fractions = [0.0] * len(running)
        rates = [0.0] * len(running)
        busy = 0.0
        for alloc, slowdown in zip(active, slowdowns):
            index = position[alloc.kernel.uid]
            fractions[index] = alloc.sm_fraction
            rates[index] = alloc.kernel.spec.rate_at(alloc.sm_fraction) / slowdown
            busy += alloc.sm_fraction
        return (tuple(fractions), tuple(rates), min(1.0, busy)), allocations

    def _validate_rates(self, applied: tuple) -> None:
        """``validate=True``: the applied rates must equal the reference
        pipeline's bit for bit, and the physical invariants must hold."""
        expected, allocations = self._reference_rates()
        if applied != expected:
            raise AssertionError(
                f"t={self.now}: applied (fractions, rates, busy) {applied!r} "
                f"differ from the reference pipeline's {expected!r}"
            )
        self._check_invariants(allocations)

    # -- completions ---------------------------------------------------
    def _rearm_completion(self) -> None:
        """Arm the next completion from the current rates (epsilon-miss
        re-arm, when nothing changed the rates)."""
        best_time = math.inf
        now = self.now
        for kernel in self._running_compute:
            rate = kernel.current_rate
            if rate <= 0:
                continue
            eta = now + kernel.remaining_work / rate
            if eta < best_time:
                best_time = eta
        for kernel in self._running_memcpy:
            rate = kernel.current_rate
            if rate <= 0:
                continue
            eta = now + kernel.remaining_work / rate
            if eta < best_time:
                best_time = eta
        if math.isfinite(best_time):
            delay = best_time - now
            if delay < 0.0:
                delay = 0.0
            self._completion_time = now + delay
            self._completion_seq = next(self._event_seq)
        else:
            self._completion_time = math.inf

    def _tick(self) -> None:
        """Completion pseudo-event: one fused epoch step.

        Advances every running kernel by the epoch (work accrual and the
        finish sweep in one pass), completes what drained, drains the
        epoch hooks, re-dispatches and re-rates.

        Finish threshold: completion times are floats; at large
        simulated times the residual work after advancing can be
        ~ulp(now) * rate and would never drain (the next event would
        round to the same instant).  Anything the kernel would clear
        within ~1 ulp of ``now`` (floored at a picosecond) counts as
        done: ``left <= max(rate * time_eps, 1e-9)``, tested as either
        bound.
        """
        self._completion_time = math.inf
        now = self.now
        dt = now - self._busy_since
        time_eps = 4.0 * math.ulp(now)
        if time_eps < 1e-9:
            time_eps = 1e-9
        running_compute = self._running_compute
        memcpy = self._running_memcpy
        finished_compute = []
        finished_memcpy = []
        # At dt == 0 the sweep stores each kernel's work back unchanged
        # and only collects the finishers.
        for index, k in enumerate(running_compute):
            rate = k.current_rate
            left = k.remaining_work - rate * dt
            if left <= 0.0:
                k.remaining_work = 0.0
                finished_compute.append((index, k))
            else:
                k.remaining_work = left
                if left <= 1e-9 or left <= rate * time_eps:
                    finished_compute.append((index, k))
        for k in memcpy:
            rate = k.current_rate
            left = k.remaining_work - rate * dt
            if left <= 0.0:
                k.remaining_work = 0.0
                finished_memcpy.append(k)
            else:
                k.remaining_work = left
                if left <= 1e-9 or left <= rate * time_eps:
                    finished_memcpy.append(k)
        if dt > 0:
            advanced = len(running_compute) + len(memcpy)
            self._epoch_batches += 1
            self._epoch_kernels_advanced += advanced
            if advanced > self._epoch_max_batch:
                self._epoch_max_batch = advanced
            self._busy_integral += self._current_busy_fraction * dt
            if self.record_timeline:
                self._record_segment_end()
            self._busy_since = now
        removed = 0
        for index, kernel in finished_compute:
            # Its sweep position, less the finishers removed before it,
            # unless a fault handler (kill/shed) earlier in this same
            # sweep changed the running set.
            index -= removed
            if index >= len(running_compute) or running_compute[index] is not kernel:
                try:
                    index = running_compute.index(kernel)
                except ValueError:
                    # Removed by that handler: nothing left to complete.
                    continue
            del running_compute[index]
            del self._sig_parts[index]
            del self._running_rows[index]
            removed += 1
            self._running_dirty = True
            self._complete_kernel(kernel.queue, kernel)
        for kernel in finished_memcpy:
            try:
                memcpy.remove(kernel)
            except ValueError:
                continue
            self._running_dirty = True
            self._complete_kernel(kernel.queue, kernel)
        if self._epoch_hooks:
            self._drain_epoch_hooks()
        self._dispatch()
        # Membership is dirty here unless the dispatch above already
        # rebalanced (or the tick was an epsilon miss, which the re-arm
        # branch repairs).
        self._maybe_rebalance()

    def _check_invariants(self, allocations) -> None:
        """Debug-mode physical invariants (``validate=True``).

        * the GPU is never oversubscribed (sum of SM shares <= 1);
        * no kernel exceeds its own demand or its context's limit;
        * every execution rate lies in [0, 1] (no free speedups);
        * remaining work never goes negative;
        * the clock never moves backwards.
        """
        if self.now < self._checked_now:
            raise AssertionError(
                f"clock moved backwards: t={self.now} after t={self._checked_now}"
            )
        self._checked_now = self.now
        total = 0.0
        for alloc in allocations:
            kernel = alloc.kernel
            total += alloc.sm_fraction
            if alloc.sm_fraction > kernel.spec.sm_demand + 1e-9:
                raise AssertionError(
                    f"{kernel.name}: granted {alloc.sm_fraction:.3f} SMs "
                    f"above demand {kernel.spec.sm_demand:.3f}"
                )
            limit = kernel.queue.context.sm_limit
            if alloc.sm_fraction > limit + 1e-9:
                raise AssertionError(
                    f"{kernel.name}: granted {alloc.sm_fraction:.3f} SMs "
                    f"above context limit {limit:.3f}"
                )
            if kernel.remaining_work < -1e-9:
                raise AssertionError(f"{kernel.name}: negative remaining work")
        if total > 1.0 + 1e-6:
            raise AssertionError(f"GPU oversubscribed: {total:.4f} SM fractions")
        for kernel in self._running_compute:
            if not 0.0 <= kernel.current_rate <= 1.0 + 1e-9:
                raise AssertionError(
                    f"{kernel.name}: rate {kernel.current_rate:.4f} out of [0, 1]"
                )

    def _complete_kernel(self, queue: DeviceQueue, kernel: KernelInstance) -> None:
        # queue.finish_running + _mark_ready, inlined (hot: once per
        # kernel).  The queue invariably holds `kernel` as its running
        # entry here — dispatch and the completion sweep guarantee it.
        faults = self._faults
        if (
            faults is not None
            and not kernel.failed
            and kernel.spec.base_duration_us > 0.0
            and kernel.spec.kind is not KernelKind.SYNC
            and faults.should_fail(kernel)
        ):
            if kernel.attempts < faults.max_retries:
                # Transient failure: the queue stays blocked on this
                # kernel while it backs off, exactly like a stalled
                # stream — ordering within the queue is preserved.
                kernel.attempts += 1
                self._kernels_retried += 1
                backoff = faults.backoff_us(kernel.attempts)
                event = self.schedule(
                    backoff,
                    lambda: self._retry_kernel(queue, kernel),
                )
                self._pending_retries[kernel.uid] = event
                if self.trace is not None:
                    self.trace.emit(
                        "fault.retry",
                        kernel.app_id,
                        request_id=kernel.request_id,
                        seq=kernel.seq,
                        name=kernel.name,
                        attempt=kernel.attempts,
                        backoff_us=backoff,
                    )
                return
            kernel.failed = True
        now = self.now
        kernel.finish_time = now
        queue._running = None
        queue.last_finish_time = now
        kernel.remaining_work = 0.0
        self._dirty_queues[queue.queue_id] = queue
        callback = kernel.on_finish
        if callback is not None:
            kernel.on_finish = None
        if kernel.failed:
            # Permanent failure: notify the harness first (it sheds the
            # owning request), then drain the per-kernel callback so
            # squad/batch accounting never stalls.
            self._kernels_failed += 1
            if self.trace is not None:
                self.trace.emit(
                    "fault.kernel_failed",
                    kernel.app_id,
                    request_id=kernel.request_id,
                    seq=kernel.seq,
                    name=kernel.name,
                    attempts=kernel.attempts,
                )
            for subscriber in self._failure_subscribers:
                subscriber(kernel)
            if callback is not None:
                callback(kernel)
            return
        self._kernels_completed += 1
        if callback is not None:
            callback(kernel)
        for subscriber in self._finish_subscribers:
            subscriber(kernel)

    def _retry_kernel(self, queue: DeviceQueue, kernel: KernelInstance) -> None:
        """Re-issue a transiently-failed kernel after its backoff.

        The kernel never left ``queue._running``, so the queue order is
        intact; work is reset (re-rolling the slowdown spike for the new
        attempt) and the kernel re-enters the running set.
        """
        self._pending_retries.pop(kernel.uid, None)
        kernel.start_time = self.now
        multiplier = self._faults.work_multiplier(kernel) if self._faults else 1.0
        kernel.remaining_work = kernel.spec.base_duration_us * multiplier
        if kernel.spec.is_memcpy:
            self._running_memcpy.append(kernel)
            self._running_dirty = True
        else:
            self._add_running(kernel, queue.context)
        self._maybe_rebalance()

    # ------------------------------------------------------------------
    # Fault teardown: killing kernels, requests, and whole contexts
    # ------------------------------------------------------------------
    def _remove_from_running(self, kernel: KernelInstance) -> bool:
        """Drop ``kernel`` from the running sets; False if not running
        (e.g. parked in retry backoff or still pending)."""
        if kernel.spec.is_memcpy:
            try:
                self._running_memcpy.remove(kernel)
            except ValueError:
                return False
            self._running_dirty = True
            return True
        try:
            index = self._running_compute.index(kernel)
        except ValueError:
            return False
        del self._running_compute[index]
        del self._sig_parts[index]
        del self._running_rows[index]
        self._running_dirty = True
        return True

    def _kill_kernel(self, queue: DeviceQueue, kernel: KernelInstance) -> tuple:
        """Common kill bookkeeping; returns the (kernel, callback) pair."""
        self._remove_from_running(kernel)
        retry = self._pending_retries.pop(kernel.uid, None)
        if retry is not None:
            self.cancel(retry)
        kernel.failed = True
        self._kernels_killed += 1
        if self.trace is not None:
            self.trace.emit(
                "fault.kernel_killed",
                kernel.app_id,
                request_id=kernel.request_id,
                seq=kernel.seq,
                name=kernel.name,
            )
        callback = kernel.on_finish
        kernel.on_finish = None
        return kernel, callback

    def kill_request(
        self, app_id: str, request_id: int
    ) -> List[Tuple[KernelInstance, Optional[Callable[[KernelInstance], None]]]]:
        """Remove every queued/running kernel of one request.

        Killed kernels are marked ``failed`` and returned with their
        per-kernel callbacks (in queue order) so the caller can drain
        accounting.  The engine does NOT invoke the callbacks itself.
        """
        killed = []
        had_running = False
        for queue in self._queues:
            running = queue._running
            if (
                running is not None
                and running.app_id == app_id
                and running.request_id == request_id
            ):
                had_running = True
                killed.append(self._kill_kernel(queue, running))
                queue._running = None
                queue.last_finish_time = self.now
                self._dirty_queues[queue.queue_id] = queue
            pending = queue._pending
            if pending:
                kept = deque()
                for kernel in pending:
                    if kernel.app_id == app_id and kernel.request_id == request_id:
                        killed.append(self._kill_kernel(queue, kernel))
                    else:
                        kept.append(kernel)
                if len(kept) != len(pending):
                    queue._pending = kept
                    self._dirty_queues[queue.queue_id] = queue
        if had_running:
            # Freed queue heads and/or SM share: re-dispatch and re-rate.
            self._dispatch()
            self._maybe_rebalance()
        return killed

    # ------------------------------------------------------------------
    # Squad-boundary preemption (serving gateway)
    # ------------------------------------------------------------------
    def request_preemption(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` once at the next rate-change epoch.

        Hooks drain inside the completion tick, after the finish sweep
        and before re-dispatch — i.e. at a kernel/squad boundary, never
        mid-kernel.  If nothing is running (idle GPU: no completion
        tick will ever fire), a zero-delay event drains the hooks
        instead.
        """
        self._epoch_hooks.append(hook)
        if not (self._running_compute or self._running_memcpy):
            self.schedule(0.0, self._drain_epoch_hooks)

    def _drain_epoch_hooks(self) -> None:
        hooks = self._epoch_hooks
        if not hooks:
            return
        self._epoch_hooks = []
        for hook in hooks:
            hook()

    def preempt_pending(
        self, app_id: str, request_id: int
    ) -> List[Tuple[KernelInstance, Optional[Callable[[KernelInstance], None]]]]:
        """Withdraw every *pending* (not yet running) kernel of a request.

        The cooperative half of squad-boundary preemption: running
        kernels are left to finish (kernel-boundary semantics, as in
        Hummingbird), queued ones are handed back to the caller so the
        scheduler can re-issue them in a later squad.  Unlike
        :meth:`kill_request`, withdrawn kernels are NOT marked failed
        and no kill counters move — the request is still live, merely
        rescheduled.  Per-kernel callbacks are returned uninvoked.
        """
        removed = []
        for queue in self._queues:
            pending = queue._pending
            if not pending:
                continue
            kept = deque()
            for kernel in pending:
                if kernel.app_id == app_id and kernel.request_id == request_id:
                    removed.append((kernel, kernel.on_finish))
                    kernel.on_finish = None
                else:
                    kept.append(kernel)
            if len(kept) != len(pending):
                queue._pending = kept
                self._dirty_queues[queue.queue_id] = queue
        return removed

    def kill_context(
        self, context: GPUContext
    ) -> List[Tuple[KernelInstance, Optional[Callable[[KernelInstance], None]]]]:
        """Tear down ``context``: its queue dies with every buffered kernel.

        Models an MPS context crash.  The queue bonded to the context is
        removed from the engine and flagged ``dead`` so in-flight
        launches fail instead of executing on a ghost context.  Returns
        (kernel, callback) pairs in queue order for the caller to shed
        or relaunch.
        """
        killed = []
        removed_running = False
        survivors = []
        for queue in self._queues:
            if queue.context is not context:
                survivors.append(queue)
                continue
            running = queue._running
            if running is not None:
                # A kernel parked in retry backoff is queue._running but
                # not in the running sets; it frees no SM share.
                was_running = running.uid not in self._pending_retries
                killed.append(self._kill_kernel(queue, running))
                removed_running = removed_running or was_running
                queue._running = None
            for kernel in queue._pending:
                killed.append(self._kill_kernel(queue, kernel))
            queue._pending.clear()
            queue.dead = True
            self._dirty_queues.pop(queue.queue_id, None)
            self._discard_gap_wake(queue.queue_id)
        self._queues = survivors
        if removed_running:
            self._maybe_rebalance()
        return killed

    def remove_queue(self, queue: DeviceQueue) -> None:
        """Detach an *idle* queue (context eviction, not a crash).

        The queue must have no running or pending kernels.  It is
        flagged ``dead`` so that any launch already in flight (inside
        its launch-overhead window) fails cleanly instead of landing on
        a detached queue and stalling forever.
        """
        if queue._running is not None or queue._pending:
            raise ValueError("cannot remove a non-idle queue")
        try:
            self._queues.remove(queue)
        except ValueError:
            pass
        queue.dead = True
        self._dirty_queues.pop(queue.queue_id, None)
        self._discard_gap_wake(queue.queue_id)

    # ------------------------------------------------------------------
    # Utilization accounting
    # ------------------------------------------------------------------
    def _accrue_busy_time(self) -> None:
        # Advance remaining work to 'now' before rates change
        # (_advance_work inlined: this runs on every event).
        now = self.now
        dt = now - self._busy_since
        if dt > 0:
            for kernel in self._running_compute:
                left = kernel.remaining_work - kernel.current_rate * dt
                kernel.remaining_work = left if left > 0.0 else 0.0
            for kernel in self._running_memcpy:
                left = kernel.remaining_work - kernel.current_rate * dt
                kernel.remaining_work = left if left > 0.0 else 0.0
            self._busy_integral += self._current_busy_fraction * dt
            if self.record_timeline:
                self._record_segment_end()
            self._busy_since = now

    def _record_segment_start(self) -> None:
        running = {}
        for kernel in itertools.chain(self._running_compute, self._running_memcpy):
            running[kernel.uid] = (
                kernel.app_id,
                kernel.current_sm_fraction,
                kernel.current_rate,
            )
        self._pending_segment = TimelineSegment(start=self.now, end=self.now, running=running)

    def _record_segment_end(self) -> None:
        segment = self._pending_segment
        if segment is None or segment.start >= self.now:
            return
        segment.end = self.now
        self.timeline.append(segment)

    def utilization(self, since: float = 0.0) -> float:
        """Average busy-SM fraction over ``[since, now]``."""
        elapsed = self.now - since
        if elapsed <= 0:
            return 0.0
        return min(1.0, self._busy_integral / elapsed)

    @property
    def kernels_completed(self) -> int:
        return self._kernels_completed

    @property
    def has_running_kernels(self) -> bool:
        return bool(self._running_compute or self._running_memcpy)

    @property
    def running_kernels(self) -> List[KernelInstance]:
        return list(itertools.chain(self._running_compute, self._running_memcpy))

    @property
    def counters(self) -> Dict[str, int]:
        """Hot-path diagnostics for this engine's lifetime."""
        return {
            "events_processed": self._events_processed,
            "rebalances": self._rebalances,
            "rebalances_skipped": self._rebalances_skipped,
            "rebalance_cache_hits": self._rebalance_cache_hits,
            "epoch_batches": self._epoch_batches,
            "epoch_kernels_advanced": self._epoch_kernels_advanced,
            "epoch_max_batch": self._epoch_max_batch,
            "heap_compactions": self._heap_compactions,
            "peak_heap_size": self._peak_heap_size,
            "gap_events_superseded": self._gap_events_superseded,
            "kernels_failed": self._kernels_failed,
            "kernels_retried": self._kernels_retried,
            "kernels_killed": self._kernels_killed,
        }

    @property
    def kernels_failed(self) -> int:
        return self._kernels_failed

    @property
    def kernels_retried(self) -> int:
        return self._kernels_retried

    @property
    def kernels_killed(self) -> int:
        return self._kernels_killed

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _fire_events(self, until: Optional[float], limit: int) -> int:
        """Fire events in ``(time, seq)`` order; returns how many fired.

        Merges the three event sources — the heap (popping cancelled
        entries on the way), the completion and the earliest gap wake —
        advances the clock to the winner and runs it.  Stops after
        ``limit`` events, when no event is left, or when the next live
        event lies past ``until`` (the clock then stops at ``until``).
        The fired events are added to the ``events_processed`` counter
        when the loop exits, by any route.
        """
        heap = self._heap
        heappop = heapq.heappop
        inf = math.inf
        fired = 0
        try:
            while True:
                while heap and heap[0][2].cancelled:
                    heappop(heap)
                    self._cancelled_in_heap -= 1
                if heap:
                    time, seq, _ = heap[0]
                    source = 0
                else:
                    time = inf
                    seq = 0
                    source = -1
                candidate = self._completion_time
                if candidate < time or (
                    candidate == time and self._completion_seq < seq
                ):
                    time = candidate
                    seq = self._completion_seq
                    source = 1
                candidate = self._gap_min_time
                if candidate < time or (candidate == time and self._gap_min_seq < seq):
                    time = candidate
                    source = 2
                if time == inf:
                    return fired
                if until is not None and time > until:
                    self._accrue_busy_time_at(until)
                    self.now = until
                    return fired
                now = self.now
                if time < now - 1e-9:
                    raise RuntimeError("event in the past — engine invariant broken")
                if time > now:
                    self.now = time
                fired += 1
                if source == 0:
                    heappop(heap)[2].callback()
                elif source == 1:
                    self._tick()
                else:
                    self._fire_gap_wake()
                if fired >= limit:
                    return fired
        finally:
            self._events_processed += fired

    def step(self) -> bool:
        """Process the next event; returns False when nothing is left."""
        return self._fire_events(None, 1) == 1

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Run until no event is left, or until the next live event lies
        past ``until`` (the clock then stops at ``until``)."""
        fired = self._fire_events(until, max_events)
        if fired and fired >= max_events:
            raise RuntimeError(f"simulation exceeded {max_events} events")
        self._accrue_busy_time()
        return self.now

    def _accrue_busy_time_at(self, time: float) -> None:
        saved = self.now
        self.now = time
        self._accrue_busy_time()
        self.now = saved
