"""A deliberately naive engine stepper, kept as the differential oracle.

:class:`OracleEngine` runs the same execution model as ``SimEngine``
with none of its machinery:

* every completion and every gap wake-up is an event on the heap;
* a launch makes one visibility event per kernel;
* each dispatch scans every queue until the heads are stable;
* every event recomputes all rates through the reference pipeline
  (``hwsched.allocate`` → ``interference.slowdowns`` →
  ``KernelSpec.rate_at``), with no gating and no memo, where the engine
  runs its inline rate kernel.

Tests compare the engine to it byte for byte.  Only the ``engine_*``
counters differ, because they count the machinery.
"""

import heapq
import math

from repro.gpusim.engine import SimEngine
from repro.gpusim.kernel import KernelKind


class OracleEngine(SimEngine):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._gap_events = {}  # queue id -> (ready_at, event)
        self._completion_event = None

    def launch_batch(self, kernels, queue, launch_overhead=None, callbacks=None):
        for position, kernel in enumerate(kernels):
            on_finish = callbacks[position] if callbacks else None
            self.launch(kernel, queue, launch_overhead, on_finish)

    def _dispatch(self):
        self._dirty_queues.clear()
        started = False
        progressing = True
        while progressing:
            progressing = False
            for queue in self._queues:
                head = queue.head()
                if head is None:
                    continue
                ready_at = queue.head_ready_at()
                if ready_at is not None and ready_at > self.now + 1e-9:
                    self._ensure_gap_wake(queue, ready_at)
                    continue
                kernel = queue.start_head(self.now)
                spec = kernel.spec
                if spec.kind is KernelKind.SYNC or spec.base_duration_us == 0:
                    self._complete_kernel(queue, kernel)
                    progressing = True
                    continue
                if self._faults is not None:
                    multiplier = self._faults.work_multiplier(kernel)
                    if multiplier != 1.0:
                        kernel.remaining_work = spec.base_duration_us * multiplier
                if spec.is_memcpy:
                    self._running_memcpy.append(kernel)
                else:
                    self._add_running(kernel, queue.context)
                started = True
        if started:
            self._rebalance()

    def _ensure_gap_wake(self, queue, ready_at):
        qid = queue.queue_id
        pending = self._gap_events.get(qid)
        if pending is not None:
            if pending[0] <= ready_at + 1e-9:
                return
            self.cancel(pending[1])

        def expire():
            entry = self._gap_events.get(qid)
            if entry is not None and entry[0] == ready_at:
                del self._gap_events[qid]
            self._dispatch()
            self._rebalance()

        self._gap_events[qid] = (ready_at, self.schedule_at(ready_at, expire))

    def _discard_gap_wake(self, queue_id):
        pending = self._gap_events.pop(queue_id, None)
        if pending is not None:
            self.cancel(pending[1])

    def _maybe_rebalance(self):
        self._rebalance()

    def _rebalance(self):
        self._accrue_busy_time()
        (fractions, rates, busy), _ = self._reference_rates()
        for kernel, sm, rate in zip(self._running_compute, fractions, rates):
            kernel.current_sm_fraction = sm
            kernel.current_rate = rate
        self._current_busy_fraction = busy
        pcie_rates = self.pcie.rates(self._running_memcpy)
        for kernel in self._running_memcpy:
            kernel.current_rate = pcie_rates.get(kernel.uid, 0.0)
            kernel.current_sm_fraction = 0.0
        if self.record_timeline:
            self._record_segment_start()
        if self._completion_event is not None:
            self.cancel(self._completion_event)
            self._completion_event = None
        best = math.inf
        for kernel in self._running_compute + self._running_memcpy:
            if kernel.current_rate > 0:
                best = min(best, self.now + kernel.remaining_work / kernel.current_rate)
        if best != math.inf:
            self._completion_event = self.schedule_at(best, self._on_completion)

    def _on_completion(self):
        self._completion_event = None
        self._accrue_busy_time()
        time_eps = max(1e-9, 4.0 * math.ulp(self.now))
        finished = [
            kernel
            for kernel in self._running_compute + self._running_memcpy
            if kernel.remaining_work <= max(1e-9, kernel.current_rate * time_eps)
        ]
        for kernel in finished:
            # A fault handler earlier in this sweep may have removed it.
            if self._remove_from_running(kernel):
                self._complete_kernel(kernel.queue, kernel)
        self._drain_epoch_hooks()
        self._dispatch()
        self._rebalance()

    def step(self):
        heap = self._heap
        while heap:
            time, _, event = heapq.heappop(heap)
            if event.cancelled:
                self._cancelled_in_heap -= 1
                continue
            self.now = max(self.now, time)
            self._events_processed += 1
            event.callback()
            return True
        return False

    def run(self, until=None, max_events=50_000_000):
        heap = self._heap
        events = 0
        while True:
            while heap and heap[0][2].cancelled:
                heapq.heappop(heap)
                self._cancelled_in_heap -= 1
            if not heap:
                break
            if until is not None and heap[0][0] > until:
                self._accrue_busy_time_at(until)
                self.now = until
                return self.now
            self.step()
            events += 1
            if events >= max_events:
                raise RuntimeError(f"simulation exceeded {max_events} events")
        self._accrue_busy_time()
        return self.now
