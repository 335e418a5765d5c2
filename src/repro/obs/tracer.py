"""The decision tracer: one stream for kernels *and* scheduler choices.

:class:`DecisionTracer` records every completed kernel, scheduler
decision and fault event as a :class:`~repro.obs.events.TraceEvent` in
one list, ``records``, which the exporters and the post-hoc analyzer
consume.  It works in two modes:

* **With an engine**, it subscribes to the engine's kernel completions
  and stamps every record with the engine's simulated clock.
* **Without an engine** (the multi-GPU controllers), it carries its own
  clock, ``now``, records the controller's decisions on it, and
  :meth:`~DecisionTracer.absorb` lifts each GPU's stream onto that
  clock with a ``gpu`` tag.

Attachment is by reference, not subclassing: components that can emit
decisions (``SimEngine``, ``ExecutionConfigDeterminer``,
``ConcurrentKernelManager``, the serving harness) each carry a
``trace`` attribute that defaults to ``None``.  Emission sites are
guarded with ``if self.trace is not None`` so a run without tracing
pays a single attribute load per *cold* branch and nothing on the hot
path (pinned by ``benchmarks/test_engine_perf.py``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..gpusim.engine import SimEngine
from ..gpusim.kernel import KernelInstance
from .events import KERNEL, TraceEvent


class DecisionTracer:
    """Records kernel completions plus decision/fault events.

    ``records`` is the unified :class:`TraceEvent` stream, with kernel
    records interleaved at their completion timestamps.
    """

    def __init__(self, engine: Optional[SimEngine] = None):
        self.engine = engine
        self.records: List[TraceEvent] = []
        # The cluster clock of an engine-less tracer; with an engine
        # attached, records are stamped with engine.now instead.
        self.now: float = 0.0
        if engine is not None:
            engine.subscribe_finish(self._on_finish)
            engine.trace = self

    # -- kernel records ------------------------------------------------
    def _on_finish(self, kernel: KernelInstance) -> None:
        # A kernel keeps the queue it ran in, and a queue keeps its
        # context, so the context is read back at completion.
        finish_us = kernel.finish_time or 0.0
        context = kernel.queue.context
        self.records.append(
            TraceEvent(
                ts_us=finish_us,
                etype=KERNEL,
                app_id=kernel.app_id,
                args={
                    "name": kernel.name,
                    "request_id": kernel.request_id,
                    "seq": kernel.seq,
                    "kind": kernel.spec.kind.value,
                    "enqueue_us": kernel.enqueue_time or 0.0,
                    "start_us": kernel.start_time or 0.0,
                    "finish_us": finish_us,
                    "sm_fraction": kernel.current_sm_fraction,
                    "context_id": context.context_id,
                    "context_limit": context.sm_limit,
                },
            )
        )

    # -- decision records ----------------------------------------------
    def emit(self, etype: str, app_id: str = "", **args: Any) -> None:
        """Record a decision/fault event stamped with the tracer's clock."""
        now = self.engine.now if self.engine is not None else self.now
        self.records.append(
            TraceEvent(ts_us=now, etype=etype, app_id=app_id, args=args)
        )

    def absorb(
        self, records: List[TraceEvent], gpu: int, offset_us: float = 0.0
    ) -> int:
        """Lift one GPU's stream onto this tracer's clock.

        ``offset_us`` is the cluster time at which the GPU's serve
        started (its local t=0); ``gpu`` becomes every absorbed
        record's first arg, so the Perfetto export can lay each GPU out
        on its own track.  Kernel records' embedded
        ``enqueue/start/finish`` triples are shifted along with
        ``ts_us`` so slice geometry stays correct.
        """
        for record in records:
            args = {"gpu": gpu, **record.args}
            if offset_us:
                for key in ("enqueue_us", "start_us", "finish_us"):
                    if key in args:
                        args[key] = args[key] + offset_us
            self.records.append(
                TraceEvent(
                    ts_us=record.ts_us + offset_us,
                    etype=record.etype,
                    app_id=record.app_id,
                    args=args,
                )
            )
        return len(records)

    # -- views ---------------------------------------------------------
    def decisions(self) -> List[TraceEvent]:
        """The stream without kernel records."""
        return [r for r in self.records if not r.is_kernel]

    def of_type(self, etype: str) -> List[TraceEvent]:
        return [r for r in self.records if r.etype == etype]

    # -- export --------------------------------------------------------
    def save_records_jsonl(self, path: Union[str, Path]) -> int:
        """The unified stream, one JSON object per line.

        Time-sorted with request ids normalized to per-trace ordinals
        (see :func:`repro.obs.exporters.normalize_request_ids`), so
        same-seed runs write byte-identical files.
        """
        from .exporters import save_jsonl

        return save_jsonl(self.records, path)


def load_records_jsonl(path: Union[str, Path]) -> List[TraceEvent]:
    """Re-load a unified stream written by :meth:`save_records_jsonl`."""
    records: List[TraceEvent] = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        raw: Dict[str, Any] = json.loads(line)
        records.append(
            TraceEvent(
                ts_us=raw["ts_us"],
                etype=raw["type"],
                app_id=raw.get("app_id", ""),
                args=raw.get("args", {}),
            )
        )
    return records
