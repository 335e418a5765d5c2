"""Online cluster orchestration: arrivals, departures, shedding, migration.

The §4.2.2 controller of :mod:`.controller` serves one static workload;
:class:`OnlineClusterController` is that controller plus an epoch loop.
Real clusters are online: applications arrive over time, run for a
while, and depart.  This module models that as an **epoch loop** — an
epoch is one pass of every active application's workload, and the
cluster clock advances by each epoch's makespan (epoch ``e`` starts at
the cumulative makespan of epochs ``0..e-1``).

Per epoch the orchestrator:

1. processes departures (``depart_epoch == e``), freeing their GPUs;
2. optionally performs one migration between epochs (GPUs are drained
   at epoch boundaries, so moving an app is free) — quota-spread
   balancing under the quota-fit policies, the largest strict
   interference-cost reduction under ``CONTENTION_AWARE``;
3. admits arrivals (``arrive_epoch == e``) through a load-shedding
   ladder: place at full quota → retry at degraded quotas (the PR-3
   graceful-degradation idea applied at cluster scope) → after a
   defragmenting migration, retry once more → shed the application,
   accounting its offered requests so ``completed + shed == arrived``
   holds cluster-wide;
4. serves each occupied GPU whose workload — what its serve reads of
   its tenants in slot order (:meth:`ClusterController._workload_key`)
   — is new in this run, optionally over the shared process pool, and
   merges the epoch.  A GPU whose workload another GPU or an earlier
   epoch already ran reuses that result with its app ids renamed (and,
   under tracing, its records at the new offset with fresh request
   ids).  A degraded quota misses; a migrated list or a replica of
   another GPU's mix hits on any GPU, since every GPU shares one spec.

Epoch results chain into one :class:`ServingResult` via
:meth:`ServingResult.merge` with per-epoch cluster-clock offsets, and
every decision lands on an engine-less
:class:`~repro.obs.tracer.DecisionTracer` (``cluster.place`` /
``cluster.shed`` / ``cluster.migrate`` / ``cluster.depart`` /
``cluster.epoch``) for the Perfetto per-GPU view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..apps.application import Application
from ..core.runtime import BlessRuntime
from ..gateway.slo import DEGRADE_FACTORS
from ..gpusim.device import GPUSpec
from ..metrics.stats import ServingResult
from ..obs.events import CLUSTER_DEPART, CLUSTER_EPOCH, CLUSTER_MIGRATE, CLUSTER_SHED
from ..parallel import resolve_backend
from ..workloads.arrivals import ArrivalProcess, drain_process
from ..workloads.suite import WorkloadBinding, estimated_solo_us
from .controller import ClusterController, SystemFactory
from .placement import PlacementPolicy

#: Below this many GPUs to serve in an epoch, the serve fans out
#: in-process instead of over the pool: ProcessPoolExecutor submit +
#: pickle + result round-trips cost more than the epochs themselves
#: for squads this small (results are byte-identical either way).
INPROC_GPU_THRESHOLD = 4


@dataclass(frozen=True)
class AppArrival:
    """One application's lifetime in the online schedule.

    The app is active for epochs ``[arrive_epoch, depart_epoch)``;
    ``depart_epoch=None`` means it stays until the end of the run.
    """

    binding: WorkloadBinding
    arrive_epoch: int = 0
    depart_epoch: Optional[int] = None

    @property
    def app_id(self) -> str:
        return self.binding.app.app_id


@dataclass
class ClusterStats:
    """Orchestrator-level accounting (admission, shedding, churn)."""

    epochs: int = 0
    apps_arrived: int = 0
    apps_admitted: int = 0
    apps_degraded: int = 0
    apps_shed: int = 0
    apps_departed: int = 0
    migrations: int = 0
    # Offered requests of shed applications — the load the cluster
    # turned away at admission (distinct from the per-request
    # fault_shed_* counters the runtimes report for admitted apps).
    requests_shed: int = 0
    # Ladder-shed offered requests split by SLO class, populated only
    # when an SLOSpec rides in ``system_kwargs``.  Kept disjoint from
    # the gateway's ``slo_shed_admission_*`` counters by construction:
    # a ladder-shed app never reaches a GPU, so its requests are never
    # offered to any gateway — each request is counted exactly once,
    # either here (app refused) or in the gateway books (app placed).
    requests_shed_by_class: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, float]:
        out = {
            "cluster_epochs": float(self.epochs),
            "cluster_apps_arrived": float(self.apps_arrived),
            "cluster_apps_admitted": float(self.apps_admitted),
            "cluster_apps_degraded": float(self.apps_degraded),
            "cluster_apps_shed": float(self.apps_shed),
            "cluster_apps_departed": float(self.apps_departed),
            "cluster_migrations": float(self.migrations),
            "cluster_requests_shed": float(self.requests_shed),
        }
        # Per-class keys only when classes exist — non-SLO runs keep
        # the historical extras schema byte for byte.
        for cls, count in sorted(self.requests_shed_by_class.items()):
            out[f"cluster_requests_shed_{cls}"] = float(count)
        return out


@dataclass
class OnlineClusterResult:
    """Merged outcome of an online serving run."""

    merged: ServingResult
    per_epoch: List[ServingResult]
    placements: List[Dict[int, List[str]]]
    stats: ClusterStats
    shed_apps: List[str] = field(default_factory=list)
    degraded_quotas: Dict[str, float] = field(default_factory=dict)

    @property
    def mean_latency_ms(self) -> float:
        return self.merged.mean_of_app_means() / 1000.0


def offered_requests(binding: WorkloadBinding) -> int:
    """How many requests a binding would submit in one epoch.

    Used to account shed applications: draining a fresh arrival process
    against the app's estimated solo latency bounds the load the
    cluster refused, keeping ``completed + shed == arrived`` meaningful
    at cluster scope even for apps that never ran.
    """
    process: ArrivalProcess = binding.fresh_process()
    return len(drain_process(process, estimated_solo_us(binding.app)))


class OnlineClusterController(ClusterController):
    """The cluster controller plus an epoch loop.

    Placement records, cost records, the per-GPU reuse table, the merge
    and the catalog row come from :class:`ClusterController`; this
    class adds departures, migration, the admission ladder and the
    epoch chain.
    """

    def __init__(
        self,
        num_gpus: int,
        gpu_spec: Optional[GPUSpec] = None,
        policy: PlacementPolicy = PlacementPolicy.BEST_FIT,
        system_factory: SystemFactory = BlessRuntime,
        system_kwargs: Optional[dict] = None,
        migrate: bool = False,
        trace: Optional[bool] = None,
    ):
        super().__init__(
            num_gpus, gpu_spec, policy, system_factory, system_kwargs, trace
        )
        self.migrate = migrate
        self.stats = ClusterStats()
        # app_id -> the binding's original process factory; placements
        # hold the (possibly quota-degraded) deployed Application.
        self._factories: Dict[str, Callable[[], ArrivalProcess]] = {}

    def _gpu_backend(self, backend: Optional[str], gpus: int) -> str:
        """In-process below ``INPROC_GPU_THRESHOLD`` GPUs to simulate,
        unless ``backend`` (or ``REPRO_BACKEND``) names one."""
        resolved = resolve_backend(backend)
        return "inproc" if resolved == "auto" and gpus < INPROC_GPU_THRESHOLD else resolved

    # -- admission ladder ------------------------------------------------
    def _try_place(self, app: Application) -> Optional[int]:
        slot = self.placer.select(app)
        if slot is None:
            return None
        self.placer.place(app)
        return slot.index

    def _admit(self, arrival: AppArrival) -> Optional[Application]:
        """Run the load-shedding ladder for one arriving application.

        The app is tried at its requested quota, then at each
        ``DEGRADE_FACTORS`` multiple of it (the gateway's rungs, at
        cluster scope).  Returns the deployed (possibly degraded)
        application, or None when the app was shed.
        """
        app = arrival.binding.app
        candidates = [app] + [
            app.with_quota(app.quota * factor) for factor in DEGRADE_FACTORS
        ]
        for attempt in range(2):
            for candidate in candidates:
                gpu = self._try_place(candidate)
                if gpu is not None:
                    degraded = candidate.quota < app.quota - 1e-12
                    if degraded:
                        self.stats.apps_degraded += 1
                    self.stats.apps_admitted += 1
                    self._emit_placement(candidate, gpu, degraded=degraded)
                    return candidate
            # One defragmenting migration, then retry the ladder once.
            if attempt == 0 and self.migrate and self._migrate_once():
                continue
            break
        self.stats.apps_shed += 1
        lost = offered_requests(arrival.binding)
        self.stats.requests_shed += lost
        slo = self.system_kwargs.get("slo")
        slo_class = slo.slo_class(app.app_id) if slo is not None else None
        if slo_class is not None:
            self.stats.requests_shed_by_class[slo_class] = (
                self.stats.requests_shed_by_class.get(slo_class, 0) + lost
            )
        self._emit(
            CLUSTER_SHED,
            app_id=app.app_id,
            quota=app.quota,
            requests_lost=lost,
            **({"slo_class": slo_class} if slo_class is not None else {}),
        )
        return None

    def _migrate_once(self) -> bool:
        move = self.placer.propose_migration()
        if move is None:
            return False
        app, source, target = move
        self.placer.apply_migration(app, source, target)
        self.stats.migrations += 1
        self._emit(
            CLUSTER_MIGRATE,
            app_id=app.app_id,
            source=source.index,
            target=target.index,
            quota=app.quota,
        )
        return True

    # -- the epoch loop --------------------------------------------------
    def serve(
        self,
        schedule: Sequence[AppArrival],
        epochs: Optional[int] = None,
        jobs: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> OnlineClusterResult:
        """Run the online schedule to completion.

        ``epochs`` defaults to the horizon the schedule implies (every
        app arrives and departs); ``jobs`` fans occupied GPUs over the
        shared process pool each epoch, byte-identical to serial.
        ``backend=None`` picks per epoch: fewer than
        ``INPROC_GPU_THRESHOLD`` GPUs to serve (those whose workload is
        new this run) serve in-process (the pool's submit+pickle tax
        exceeds such epochs' work), more go to the pool; pass
        ``"inproc"``/``"pool"`` to force.  Every call starts from empty
        GPUs, new :class:`ClusterStats` and no deployed tenants.
        """
        schedule = list(schedule)
        ids = [arrival.app_id for arrival in schedule]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate app_ids in online schedule")
        for arrival in schedule:
            if (
                arrival.depart_epoch is not None
                and arrival.depart_epoch <= arrival.arrive_epoch
            ):
                raise ValueError(
                    f"app {arrival.app_id!r} departs at epoch "
                    f"{arrival.depart_epoch} <= arrival {arrival.arrive_epoch}"
                )
        if epochs is None:
            epochs = max(
                [a.arrive_epoch + 1 for a in schedule]
                + [a.depart_epoch for a in schedule if a.depart_epoch is not None]
                + [1]
            )

        self._begin_serve()
        self.stats = ClusterStats()
        self._factories = {}
        per_epoch: List[ServingResult] = []
        offsets: List[float] = []
        placements: List[Dict[int, List[str]]] = []
        shed_apps: List[str] = []
        degraded_quotas: Dict[str, float] = {}
        shed_ids = set()
        epoch_costs: List[float] = []
        offset = 0.0

        for epoch in range(epochs):
            self.stats.epochs += 1
            if self.tracer is not None:
                self.tracer.now = offset

            # 1. Departures free their GPU before this epoch serves.
            for arrival in schedule:
                if arrival.depart_epoch != epoch:
                    continue
                if arrival.app_id in shed_ids or arrival.arrive_epoch >= epoch:
                    continue
                slot = self.placer.remove(arrival.app_id)
                self._factories.pop(arrival.app_id, None)
                self.stats.apps_departed += 1
                self._emit(CLUSTER_DEPART, app_id=arrival.app_id, gpu=slot.index)

            # 2. Rebalance across the drained epoch boundary.
            if self.migrate:
                self._migrate_once()

            # 3. Admissions, in schedule order.
            for arrival in schedule:
                if arrival.arrive_epoch != epoch:
                    continue
                self.stats.apps_arrived += 1
                deployed = self._admit(arrival)
                if deployed is None:
                    shed_apps.append(arrival.app_id)
                    shed_ids.add(arrival.app_id)
                    continue
                self._factories[arrival.app_id] = arrival.binding.process_factory
                if deployed.quota < arrival.binding.app.quota - 1e-12:
                    degraded_quotas[arrival.app_id] = deployed.quota

            # Contention policy: record the epoch's objective value on
            # the trace and in the per-run cost trail (averaged into
            # ``cluster_placement_cost`` at the end).
            if self.placer.cost_model is not None:
                epoch_cost = self.placer.placement_cost()
                epoch_costs.append(epoch_cost)
                self._emit_cost(epoch_cost, epoch=epoch)

            # 4. Serve each occupied GPU whose workload is new in this
            # run; the others reuse the pass that first ran it.
            gpu_bindings = [
                (
                    slot.index,
                    [
                        WorkloadBinding(
                            app=app, process_factory=self._factories[app.app_id]
                        )
                        for app in slot.apps
                    ],
                )
                for slot in self.placer.slots
                if slot.apps
            ]
            placements.append(
                {
                    index: [binding.app.app_id for binding in bindings]
                    for index, bindings in gpu_bindings
                }
            )
            if not gpu_bindings:
                continue
            per_gpu = self._serve_distinct(gpu_bindings, jobs, backend, offset)
            epoch_result = self._merge(
                [per_gpu[index] for index, _ in gpu_bindings]
            )
            self._emit(
                CLUSTER_EPOCH,
                epoch=epoch,
                makespan_us=epoch_result.makespan_us,
                utilization=epoch_result.utilization,
                **{
                    f"util_gpu{index}": per_gpu[index].utilization
                    for index, _ in gpu_bindings
                },
            )
            per_epoch.append(epoch_result)
            offsets.append(offset)
            offset += epoch_result.makespan_us

        if per_epoch:
            merged = self._merge(
                per_epoch,
                weights=[float(self.num_gpus)] * len(per_epoch),
                offsets=offsets,
            )
        else:
            merged = ServingResult(system=self._system_name())
        merged.extras.update(self.stats.as_dict())
        if epoch_costs:
            # Mean per-epoch interference cost — the scenario-level
            # ``placement_cost`` metric the catalog compares across
            # policies.  Absent for quota policies (historical schema).
            merged.extras["cluster_placement_cost"] = float(
                sum(epoch_costs) / len(epoch_costs)
            )
        self._ingest(
            "cluster_online",
            merged,
            jobs,
            migrate=self.migrate,
            epochs=epochs,
            schedule=[[a.app_id, a.arrive_epoch, a.depart_epoch] for a in schedule],
        )
        return OnlineClusterResult(
            merged=merged,
            per_epoch=per_epoch,
            placements=placements,
            stats=self.stats,
            shed_apps=shed_apps,
            degraded_quotas=degraded_quotas,
        )
