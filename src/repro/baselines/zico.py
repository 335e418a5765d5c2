"""ZICO: coordinated unbounded sharing for training pairs (§6.1).

Zico overlaps the training iterations of co-located models without SM
restrictions, but *coordinates* their phases (tick-tock between forward
and backward passes) so peak memory — and, as a side effect, bandwidth
contention — is reduced.  We model an iteration as two halves with a
phase barrier: a client that finished its first half waits until every
co-runner is also at a half boundary (or idle) before starting its
second half, mirroring Zico's staggered forward/backward scheduling.
The sharing itself stays unbounded, which leaves the intra-round
bubbles that Fig. 18(b) shows BLESS removing.
"""

from __future__ import annotations

from .base import ClientState, SharingSystem


class ZicoSystem(SharingSystem):
    """Unbounded training sharing with tick-tock phase coordination."""

    name = "ZICO"

    def setup(self) -> None:
        for client in self.clients.values():
            context = self.registry.create(
                owner=client.app_id, sm_limit=1.0, label="zico"
            )
            client.attachments["queue"] = self.engine.create_queue(
                context, label=client.app_id
            )
            client.attachments["waiting"] = False

    def on_request_activated(self, client: ClientState) -> None:
        client.attachments["waiting"] = False
        self._launch_segment(client, first_half=True)

    # ------------------------------------------------------------------
    def _launch_segment(self, client: ClientState, first_half: bool) -> None:
        request = client.active
        if request is None:
            raise RuntimeError("no active request")
        queue = client.attachments["queue"]
        if first_half:
            start = 0
            end = max(1, request.total_kernels // 2)
        else:
            start = request.next_kernel
            end = request.total_kernels
        def on_last(k, c=client):
            self._on_segment_done(c, k)

        kernels = request.make_kernels(range(start, end))
        if kernels:
            callbacks = [None] * len(kernels)
            callbacks[-1] = on_last
            self.engine.launch_batch(kernels, queue, callbacks=callbacks)
        request.next_kernel = end

    def on_request_shed(self, client: ClientState, request) -> None:
        # A shed waiter must not leave its co-runners stuck at the
        # phase barrier.
        client.attachments["waiting"] = False
        self._pump_barrier()

    def _on_segment_done(self, client: ClientState, kernel) -> None:
        request = client.active
        if request is None or kernel.request_id != request.request_id:
            return
        if kernel.seq == request.total_kernels - 1:
            self.finish_request(client)
        else:
            client.attachments["waiting"] = True
        self._pump_barrier()

    def _pump_barrier(self) -> None:
        """Release every waiter whose co-runners are all at a boundary."""
        progressed = True
        while progressed:
            progressed = False
            for client in self.clients.values():
                if not client.attachments.get("waiting"):
                    continue
                if client.active is None:
                    client.attachments["waiting"] = False
                    continue
                if self._barrier_open(client):
                    client.attachments["waiting"] = False
                    self._launch_segment(client, first_half=False)
                    progressed = True

    def _barrier_open(self, client: ClientState) -> bool:
        """Open when every co-runner is idle, waiting, or fully launched."""
        for other in self.clients.values():
            if other is client or other.active is None:
                continue
            if other.attachments.get("waiting"):
                continue
            mid_segment = any(
                k.request_id == other.active.request_id
                for k in self.engine.running_kernels
            )
            if mid_segment and not other.active.all_scheduled:
                return False
        return True
