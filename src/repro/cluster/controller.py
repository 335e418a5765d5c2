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

GPUs do not interfere, so a GPU's pass depends only on its tenants'
content in slot order: ``serve`` simulates each distinct workload once
and gives every other GPU with it a copy, app ids renamed slot by slot.

The online controller (:mod:`.online`) is this class plus an epoch
loop; both record their decisions and merge their GPUs through the
methods defined here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..apps.application import Application, new_request_id
from ..baselines.base import SharingSystem
from ..catalog.ingest import ingest_metrics_safe, result_metrics
from ..core.runtime import BlessRuntime
from ..gpusim.device import GPUSpec
from ..gpusim.faults import resolve_fault_plan
from ..metrics.stats import RequestRecord, ServingResult
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


def _factory_key(factory: Callable) -> Hashable:
    """What an arrival-process factory builds: a ``partial``'s function,
    args and keywords; any other factory (or an unhashable argument)
    is keyed by identity."""
    if isinstance(factory, partial):
        key = (factory.func, factory.args, tuple(sorted(factory.keywords.items())))
        try:
            hash(key)
            return key
        except TypeError:
            pass
    return id(factory)


def _renumbered(records: Sequence[TraceEvent]) -> List[TraceEvent]:
    """``records`` with every request id replaced by a new one.

    A reused pass enters the trace as new requests: the trace analyzer
    keys requests on ``(app_id, request_id)``, so repeating the first
    pass's ids would fold two epochs' requests into one.
    """
    new_ids: Dict[int, int] = {}
    out: List[TraceEvent] = []
    for record in records:
        raw = record.args.get("request_id")
        if raw is None or raw < 0:
            out.append(record)
            continue
        if raw not in new_ids:
            new_ids[raw] = new_request_id()
        out.append(
            TraceEvent(
                ts_us=record.ts_us,
                etype=record.etype,
                app_id=record.app_id,
                args={**record.args, "request_id": new_ids[raw]},
            )
        )
    return out


@dataclass
class _ServedGPU:
    """One simulated GPU pass, kept for the serve's other GPUs with the
    same workload.  ``bindings`` pins the objects whose ids enter the
    key, so no id can be reused while the entry lives."""

    bindings: List[WorkloadBinding]
    result: ServingResult
    records: List[TraceEvent]

    def relabelled(self, bindings: Sequence[WorkloadBinding]) -> ServingResult:
        """The pass's result for a GPU whose tenants are ``bindings``:
        each record's app id renamed to the tenant in the same slot."""
        names = {old.app.app_id: new.app.app_id for old, new in zip(self.bindings, bindings)}
        if all(old == new for old, new in names.items()):
            return self.result
        return replace(
            self.result,
            records=[
                RequestRecord(names[r.app_id], r.request_id, r.arrival, r.finish)
                for r in self.result.records
            ],
            extras=dict(self.result.extras),
        )


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
    """Places applications on GPUs and serves them with per-GPU runtimes.

    This is the §4.2.2 central controller.  It owns the placer, the
    per-GPU system factory, the decision tracer, the ``cluster.place`` /
    ``cluster.interference`` / ``cluster.cost`` records and the per-GPU
    merge; :class:`~repro.cluster.online.OnlineClusterController` adds
    the epoch loop on top of them.
    """

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

    def _emit(self, etype: str, app_id: str = "", **args) -> None:
        if self.tracer is not None:
            self.tracer.emit(etype, app_id=app_id, **args)

    def _emit_placement(self, app: Application, gpu: int, **flags) -> None:
        """Record that ``app`` (as deployed) went to GPU ``gpu``.

        ``flags`` land between ``quota`` and ``policy`` in the
        ``cluster.place`` record.  Under ``CONTENTION_AWARE`` a
        ``cluster.interference`` record follows with the app's
        predicted slowdown next to its co-residents and the slot's cost.
        """
        self._emit(
            CLUSTER_PLACE,
            app_id=app.app_id,
            gpu=gpu,
            quota=app.quota,
            **flags,
            policy=self.placer.policy.value,
        )
        cost_model = self.placer.cost_model
        if cost_model is not None and self.tracer is not None:
            group = self.placer.slots[gpu].apps
            co = [a for a in group if a is not app]
            self._emit(
                CLUSTER_INTERFERENCE,
                app_id=app.app_id,
                gpu=gpu,
                slowdown=cost_model.estimator.slowdown(app, co),
                slot_cost=cost_model.slot_cost(group),
            )

    def _emit_cost(self, cost: float, **scope) -> None:
        """Record the contention policy's objective value ``cost``.

        ``scope`` (the online epoch) leads the ``cluster.cost`` record.
        """
        estimator = self.placer.cost_model.estimator
        self._emit(
            CLUSTER_COST,
            **scope,
            cost=cost,
            policy=self.placer.policy.value,
            estimator_hits=estimator.hits,
            estimator_misses=estimator.misses,
        )

    def _merge(self, results: Sequence[ServingResult], **chain) -> ServingResult:
        """One cluster-level result over ``results``, in the given order.

        ``num_slots`` counts idle GPUs too: a pool of three GPUs serving
        one app is one-third utilised, not fully utilised.  ``chain``
        carries the online epoch chain's ``weights`` and ``offsets``.
        """
        return ServingResult.merge(
            results,
            system=self._system_name(),
            num_slots=self.num_gpus,
            **chain,
        )

    def _begin_serve(self) -> None:
        """Empty GPUs and an empty reuse table: each serve starts afresh.

        App ids enter the workload key only where a per-GPU serve reads
        them: an active fault plan (resolved as :class:`SharingSystem`
        does, environment included) hashes them, an SLO spec or per-app
        SLO targets class them, trace records name them, and an opaque
        system factory might read anything.
        """
        self.placer = self._new_placer()
        self._served: Dict[tuple, _ServedGPU] = {}
        self._tenant_keys: Dict[Tuple[int, int], Tuple[WorkloadBinding, tuple]] = {}
        factory = self.system_factory
        kwargs = {**getattr(factory, "keywords", {}), **self.system_kwargs}
        plan = kwargs.get("fault_plan") or resolve_fault_plan()
        self._ids_in_key = (
            (plan is not None and plan.active)
            or kwargs.get("slo") is not None
            or bool(getattr(kwargs.get("config"), "slo_targets_us", None))
            or not isinstance(getattr(factory, "func", factory), type)
            or self.tracer is not None
        )

    def _workload_key(self, bindings: Sequence[WorkloadBinding]) -> tuple:
        """What a GPU's serve reads of its tenants, slot by slot: each
        app's name, kind, kernel list (by identity, pinned by the cached
        binding), memory, quota, factory key and, if read, app id."""
        keys = []
        for binding in bindings:
            app = binding.app
            slot = (id(app), id(binding.process_factory))
            if slot not in self._tenant_keys:
                key = (app.name, app.kind, id(app.kernels), app.memory_mb, app.quota,
                       _factory_key(binding.process_factory),
                       app.app_id if self._ids_in_key else None)
                self._tenant_keys[slot] = (binding, key)
            keys.append(self._tenant_keys[slot][1])
        return tuple(keys)

    def _gpu_backend(self, backend: Optional[str], gpus: int) -> Optional[str]:
        """The fan-out backend for ``gpus`` GPUs to simulate."""
        return backend

    def _serve_distinct(
        self,
        gpu_bindings: Sequence[Tuple[int, List[WorkloadBinding]]],
        jobs: Optional[int],
        backend: Optional[str],
        offset_us: float = 0.0,
    ) -> Dict[int, ServingResult]:
        """Each GPU's result, simulating only workloads new to this serve:
        the first GPU with a new key serves it, the others get a relabelled
        copy.  Traced keys hold the ids, so only a later epoch repeats one;
        its records are absorbed again, with new request ids."""
        keys = {index: self._workload_key(bindings) for index, bindings in gpu_bindings}
        fresh: Dict[tuple, Tuple[int, List[WorkloadBinding]]] = {}
        for index, bindings in gpu_bindings:
            if keys[index] not in self._served:
                fresh.setdefault(keys[index], (index, bindings))
        if fresh:
            results, records = serve_gpus(
                list(fresh.values()),
                self.system_factory,
                self.system_kwargs,
                jobs=jobs,
                trace=self.tracer is not None,
                backend=self._gpu_backend(backend, len(fresh)),
            )
            for key, (index, bindings) in fresh.items():
                self._served[key] = _ServedGPU(bindings, results[index], records.get(index, []))
        served_now = {index for index, _ in fresh.values()}
        per_gpu: Dict[int, ServingResult] = {}
        for index, bindings in gpu_bindings:
            entry = self._served[keys[index]]
            per_gpu[index] = entry.relabelled(bindings)
            if self.tracer is not None:
                gpu_records = entry.records if index in served_now else _renumbered(entry.records)
                self.tracer.absorb(gpu_records, index, offset_us=offset_us)
        return per_gpu

    def _system_name(self) -> str:
        return f"cluster/{system_name(self.system_factory, self.system_kwargs)}"

    def _ingest(
        self, experiment: str, merged: ServingResult, jobs: Optional[int], **config
    ) -> None:
        """Record a cluster-wide result in the catalog.

        The catalog then carries the ``completed + shed == arrived``
        accounting at the level CI perf queries compare, not only the
        per-GPU cells.
        """
        ingest_metrics_safe(
            experiment,
            merged.system,
            {
                "experiment": experiment,
                "num_gpus": self.num_gpus,
                "policy": self.placer.policy.value,
                **config,
            },
            result_metrics(merged),
            jobs=jobs,
        )

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
        self._begin_serve()
        placements = self.placer.place_all([b.app for b in bindings])
        placement_cost = self.placer.placement_cost()
        if self.tracer is not None:
            self.tracer.now = 0.0
            for gpu_index in sorted(placements):
                for app in placements[gpu_index]:
                    self._emit_placement(app, gpu_index)
            if placement_cost is not None:
                self._emit_cost(placement_cost)

        gpu_bindings = [
            (gpu_index, [by_app[app.app_id] for app in apps])
            for gpu_index, apps in sorted(placements.items())
        ]
        per_gpu = self._serve_distinct(gpu_bindings, jobs, backend)
        # Merge in GPU slot-index order — deterministic regardless of
        # pool completion order.
        merged = self._merge([per_gpu[gpu_index] for gpu_index, _ in gpu_bindings])
        # The contention policy's objective value rides in extras (and
        # thus the catalog) as ``cluster_placement_cost``; quota
        # policies keep the historical extras schema byte for byte.
        if placement_cost is not None:
            merged.extras["cluster_placement_cost"] = float(placement_cost)
        placed = {
            index: [a.app_id for a in apps] for index, apps in placements.items()
        }
        self._ingest(
            "cluster_merged",
            merged,
            jobs,
            placements={str(index): placed[index] for index in sorted(placed)},
        )
        return ClusterResult(merged=merged, per_gpu=per_gpu, placements=placed)
