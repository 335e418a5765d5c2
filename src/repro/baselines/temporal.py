"""TEMPORAL: round-robin time-slice sharing with context switches (§6.1).

The GPU is multiplexed in time: each client owns the whole GPU for a
slice proportional to its quota, then a context switch hands the GPU to
the next client.  Kernels are un-preemptable, so a slice only ends at a
kernel boundary.  An idle client's turn costs a polling delay before it
is skipped.  Latency suffers doubly — a request waits for its client's
turn, then advances only during its own slices — which is why TEMPORAL
has the lowest utilization and the worst latency of the baselines.
"""

from __future__ import annotations

from typing import List, Optional

from .base import ClientState, SharingSystem

# One round-robin cycle: each client's slice is this times its quota.
CYCLE_US = 10_000.0
# Polling delay charged for skipping an idle client's turn.
IDLE_YIELD_US = 100.0


class TemporalSystem(SharingSystem):
    """Quota-proportional round-robin time slicing.

    Slices rotate in registration order (the order of the bindings),
    starting at the first client to activate; of two requests arriving
    at the same instant, the first-registered client's activates first.
    """

    name = "TEMPORAL"

    def setup(self) -> None:
        self._order: List[ClientState] = list(self.clients.values())
        self._slice_idx = 0
        self._rotating = False
        self._idle_streak = 0
        for client in self.clients.values():
            context = self.registry.create(
                owner=client.app_id, sm_limit=1.0, label="temporal"
            )
            client.attachments["queue"] = self.engine.create_queue(
                context, label=client.app_id
            )

    # ------------------------------------------------------------------
    def on_request_activated(self, client: ClientState) -> None:
        if not self._rotating:
            self._rotating = True
            self._idle_streak = 0
            self._slice_idx = self._order.index(client)
            self._begin_slice()

    @staticmethod
    def _has_unlaunched_work(client: ClientState) -> bool:
        request = client.active
        return request is not None and not request.all_scheduled

    def _begin_slice(self) -> None:
        client = self._order[self._slice_idx]
        if self._has_unlaunched_work(client):
            self._idle_streak = 0
            slice_len = CYCLE_US * client.app.quota
            self._run_slice(client, self.engine.now + slice_len)
            return
        # Idle client: poll, charge the yield delay, move on.
        self._idle_streak += 1
        if self._idle_streak >= len(self._order):
            self._rotating = False
            return
        self._advance_index()
        self.engine.schedule(IDLE_YIELD_US, self._begin_slice)

    def _advance_index(self) -> None:
        self._slice_idx = (self._slice_idx + 1) % len(self._order)

    def _run_slice(self, client: ClientState, slice_end: float) -> None:
        self._launch_batch(client, slice_end)

    def _launch_batch(self, client: ClientState, slice_end: float) -> None:
        """Launch kernels expected to fit in the remaining slice time."""
        request = client.active
        if request is None:
            raise RuntimeError("no active request to batch")
        queue = client.attachments["queue"]
        budget = slice_end - self.engine.now
        total = request.total_kernels
        batch_end: Optional[int] = None
        accumulated = 0.0
        index = request.next_kernel
        while index < total:
            accumulated += request.app.kernels[index].base_duration_us
            index += 1
            if accumulated > budget and index > request.next_kernel + 0:
                break
        batch_end = max(index, request.next_kernel + 1)

        def on_last(k, c=client, e=slice_end):
            self._on_batch_done(c, k, e)

        kernels = request.make_kernels(range(request.next_kernel, batch_end))
        callbacks = [None] * len(kernels)
        callbacks[-1] = on_last
        self.engine.launch_batch(kernels, queue, callbacks=callbacks)
        request.next_kernel = batch_end

    def _on_batch_done(self, client: ClientState, kernel, slice_end: float) -> None:
        request = client.active
        if (
            not kernel.failed
            and request is not None
            and kernel.request_id == request.request_id
            and kernel.seq == request.total_kernels - 1
        ):
            self.finish_request(client)
        # A new request may have been activated by finish_request.
        if self._has_unlaunched_work(client) and self.engine.now < slice_end:
            self._launch_batch(client, slice_end)
            return
        self._end_slice()

    def _end_slice(self) -> None:
        self._advance_index()
        self.engine.schedule(
            self.engine.device.spec.context_switch_us, self._begin_slice
        )
