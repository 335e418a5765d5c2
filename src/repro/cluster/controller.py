"""Multi-GPU serving: the central controller of §4.2.2.

``ClusterController`` replicates a sharing system's runtime per GPU,
places applications via :class:`ClusterPlacer`, splits a cluster-wide
workload by placement, serves every GPU independently (GPUs do not
interfere with one another), and merges the results with
:meth:`ServingResult.merge`.

Because the per-GPU simulations share no state, they fan out over the
same :class:`~repro.parallel.ServeCell` process pool the experiment
harness uses (``jobs=`` / ``REPRO_JOBS``); results are merged in GPU
slot-index order, so parallel output is byte-identical to serial.

When tracing is on the controller owns an engine-less
:class:`DecisionTracer`: its own decisions (``cluster.place`` …) land on
the cluster clock, and each GPU's stream is absorbed with a ``gpu`` tag
so the Perfetto export lays every GPU out on its own track.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..baselines.base import SharingSystem
from ..catalog.ingest import ingest_metrics_safe, result_metrics
from ..core.runtime import BlessRuntime
from ..gpusim.device import GPUSpec
from ..metrics.stats import ServingResult
from ..obs import DecisionTracer, resolve_tracing
from ..obs.events import (
    CLUSTER_COST,
    CLUSTER_INTERFERENCE,
    CLUSTER_PLACE,
    TraceEvent,
)
from ..parallel import (
    ServeCell,
    cells_are_picklable,
    resolve_backend,
    resolve_jobs,
    run_cells,
)
from ..workloads.suite import WorkloadBinding
from .placement import ClusterPlacer, PlacementPolicy

SystemFactory = Callable[..., SharingSystem]


def _rebuild_bindings(
    bindings: Tuple[WorkloadBinding, ...],
) -> List[WorkloadBinding]:
    # Module-level bindings factory: ServeCell fields must pickle, and
    # partial(_rebuild_bindings, tuple_of_bindings) does while a lambda
    # closing over the list would not.
    return list(bindings)


def system_name(
    system_factory: SystemFactory, system_kwargs: Optional[dict] = None
) -> str:
    """The display name of the systems a factory builds.

    Sharing systems carry ``name`` as a class attribute, so the common
    case needs no instantiation; opaque callables (a partial, a lambda
    in tests) fall back to building one instance.
    """
    name = getattr(system_factory, "name", None)
    if isinstance(name, str):
        return name
    return system_factory(**(system_kwargs or {})).name


def serve_gpus(
    gpu_bindings: Sequence[Tuple[int, Sequence[WorkloadBinding]]],
    system_factory: SystemFactory,
    system_kwargs: Optional[dict] = None,
    jobs: Optional[int] = None,
    trace: bool = False,
    experiment: str = "cluster",
    backend: Optional[str] = None,
) -> Tuple[Dict[int, ServingResult], Dict[int, List[TraceEvent]]]:
    """Serve each GPU's bindings on a private system instance.

    ``gpu_bindings`` is ``[(gpu_index, bindings), ...]``; each entry
    becomes one :class:`ServeCell` executed through the shared process
    pool — or in this process when ``backend="inproc"`` (small squads,
    where pool submit+pickle would dominate the serve itself).
    Bindings that cannot pickle (a test handed us closures) run
    serially instead of failing one round-trip per GPU.

    Returns ``(results, records)`` keyed by GPU index.  ``records`` is
    empty unless ``trace=True``, which forces the in-process path:
    per-GPU tracer records never cross the pickle boundary
    (``ServingResult`` does not carry them).  Each GPU's records stay
    on its local clock (t=0 = start of its serve); the caller absorbs
    them onto the cluster clock with :meth:`DecisionTracer.absorb`.
    """
    kwargs = dict(system_kwargs or {})
    per_gpu: Dict[int, ServingResult] = {}
    records: Dict[int, List[TraceEvent]] = {}
    if trace:
        for gpu_index, bindings in gpu_bindings:
            system = system_factory(**{**kwargs, "trace": True})
            per_gpu[gpu_index] = system.serve(list(bindings))
            if system.obs.tracer is not None:
                records[gpu_index] = system.obs.tracer.records
        return per_gpu, records
    cells = [
        ServeCell(
            key=gpu_index,
            system=f"gpu{gpu_index}",
            system_factory=system_factory,
            bindings_factory=partial(_rebuild_bindings, tuple(bindings)),
            system_kwargs=kwargs,
        )
        for gpu_index, bindings in gpu_bindings
    ]
    pool_possible = resolve_backend(backend) != "inproc"
    if pool_possible and resolve_jobs(jobs) > 1 and not cells_are_picklable(cells):
        jobs = 1
    results = run_cells(cells, jobs=jobs, experiment=experiment, backend=backend)
    for (gpu_index, _), result in zip(gpu_bindings, results):
        per_gpu[gpu_index] = result
    return per_gpu, records


@dataclass
class ClusterResult:
    """Merged outcome of a cluster-wide serving run."""

    merged: ServingResult
    per_gpu: Dict[int, ServingResult]
    placements: Dict[int, List[str]]

    @property
    def mean_latency_ms(self) -> float:
        return self.merged.mean_of_app_means() / 1000.0


class ClusterController:
    """Places applications on GPUs and serves them with per-GPU runtimes."""

    def __init__(
        self,
        num_gpus: int,
        gpu_spec: Optional[GPUSpec] = None,
        policy: PlacementPolicy = PlacementPolicy.BEST_FIT,
        system_factory: SystemFactory = BlessRuntime,
        system_kwargs: Optional[dict] = None,
        trace: Optional[bool] = None,
    ):
        self.gpu_spec = gpu_spec or GPUSpec()
        self.system_kwargs = dict(system_kwargs or {})
        self._new_placer = partial(
            ClusterPlacer,
            num_gpus,
            self.gpu_spec,
            policy,
            slo=self.system_kwargs.get("slo"),
        )
        self.placer = self._new_placer()
        self.system_factory = system_factory
        self.tracing = resolve_tracing(trace)
        self.tracer: Optional[DecisionTracer] = (
            DecisionTracer() if self.tracing else None
        )

    @property
    def num_gpus(self) -> int:
        return len(self.placer.slots)

    def serve(
        self,
        bindings: Sequence[WorkloadBinding],
        jobs: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> ClusterResult:
        """Place every binding's app, then serve each GPU to completion.

        ``jobs`` follows the harness-wide policy (None → ``REPRO_JOBS``
        → serial); GPUs serve concurrently across the process pool with
        byte-identical output to a serial run.  ``backend`` follows
        :func:`repro.parallel.resolve_backend` (``"inproc"`` keeps
        small squads out of the pool).
        """
        if not bindings:
            raise ValueError("cannot serve an empty cluster workload")
        by_app = {binding.app.app_id: binding for binding in bindings}
        if len(by_app) != len(bindings):
            raise ValueError("duplicate app_ids in cluster workload")

        # Each serve places onto empty GPUs, whatever an earlier serve left.
        self.placer = self._new_placer()
        placements = self.placer.place_all([b.app for b in bindings])
        cost_model = self.placer.cost_model
        placement_cost = self.placer.placement_cost()
        if self.tracer is not None:
            self.tracer.now = 0.0
            for gpu_index in sorted(placements):
                for app in placements[gpu_index]:
                    self.tracer.emit(
                        CLUSTER_PLACE,
                        app_id=app.app_id,
                        gpu=gpu_index,
                        quota=app.quota,
                        policy=self.placer.policy.value,
                    )
                    if cost_model is not None:
                        group = placements[gpu_index]
                        co = [a for a in group if a is not app]
                        self.tracer.emit(
                            CLUSTER_INTERFERENCE,
                            app_id=app.app_id,
                            gpu=gpu_index,
                            slowdown=cost_model.estimator.slowdown(app, co),
                            slot_cost=cost_model.slot_cost(group),
                        )
            if cost_model is not None:
                self.tracer.emit(
                    CLUSTER_COST,
                    cost=placement_cost,
                    policy=self.placer.policy.value,
                    estimator_hits=cost_model.estimator.hits,
                    estimator_misses=cost_model.estimator.misses,
                )

        gpu_bindings = [
            (gpu_index, [by_app[app.app_id] for app in apps])
            for gpu_index, apps in sorted(placements.items())
        ]
        per_gpu, records = serve_gpus(
            gpu_bindings,
            self.system_factory,
            self.system_kwargs,
            jobs=jobs,
            trace=self.tracer is not None,
            backend=backend,
        )
        for gpu_index, gpu_records in records.items():
            self.tracer.absorb(gpu_records, gpu_index)
        # Merge in GPU slot-index order — deterministic regardless of
        # pool completion order.  num_slots counts idle GPUs too: a
        # pool of three GPUs serving one app is one-third utilised,
        # not fully utilised (the historical len(per_gpu) denominator
        # bug), and merged extras keep the fault/engine counters every
        # GPU accumulated (previously dropped entirely).
        merged = ServingResult.merge(
            [per_gpu[gpu_index] for gpu_index, _ in gpu_bindings],
            system=f"cluster/{system_name(self.system_factory, self.system_kwargs)}",
            num_slots=len(self.placer.slots),
        )
        # The contention policy's objective value rides in extras (and
        # thus the catalog) as ``cluster_placement_cost``; quota
        # policies keep the historical extras schema byte for byte.
        if placement_cost is not None:
            merged.extras["cluster_placement_cost"] = float(placement_cost)
        # Record the cluster-wide merge (not just the per-GPU cells) so
        # the catalog carries the completed + shed == arrived accounting
        # at the level CI perf queries compare.
        ingest_metrics_safe(
            "cluster_merged",
            merged.system,
            {
                "experiment": "cluster_merged",
                "num_gpus": len(self.placer.slots),
                "policy": self.placer.policy.value,
                "placements": {
                    str(index): [a.app_id for a in apps]
                    for index, apps in sorted(placements.items())
                },
            },
            result_metrics(merged),
            jobs=jobs,
        )
        return ClusterResult(
            merged=merged,
            per_gpu=per_gpu,
            placements={
                index: [a.app_id for a in apps]
                for index, apps in placements.items()
            },
        )
