"""Matrix runner: expand a scenario's sweep into ServeCell grids.

Every sweep point × system becomes one :class:`~repro.parallel.ServeCell`
executed through the existing ``run_cells`` machinery — the same pool,
the same submission-order collection, the same byte-identical
parallel ≡ serial guarantee, and the same automatic catalog ingest
(each run lands under the scenario's ``name`` as its experiment label,
with the cell config hashed by the catalog).

Cells ship to pool workers, so nothing here may close over live
objects: a cell's ``bindings_factory`` is a ``functools.partial`` over
the module-level :func:`_bindings_for` carrying the (picklable)
:class:`~repro.scenarios.spec.ScenarioSpec` of its point, and the
workload is re-resolved against the component registry *inside* the
worker.
"""

from __future__ import annotations

import inspect
import itertools
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..catalog.ingest import result_metrics
from ..metrics.stats import ServingResult
from ..parallel import ServeCell, run_cells
from ..workloads.suite import WorkloadBinding
from .registry import REGISTRY, ScenarioError
from .spec import ScenarioSpec, load_scenario

#: Point key used when a scenario has no sweep section.
BASE_POINT_KEY = "base"


# ----------------------------------------------------------------------
# Sweep expansion
# ----------------------------------------------------------------------
def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, "g")
    return str(value)


def point_key(overrides: Sequence[Tuple[str, Any]]) -> str:
    """Canonical point label: ``axis=value`` joined in axis order."""
    if not overrides:
        return BASE_POINT_KEY
    return ",".join(f"{axis}={_format_value(value)}" for axis, value in overrides)


def apply_point(
    spec: ScenarioSpec, overrides: Sequence[Tuple[str, Any]]
) -> ScenarioSpec:
    """One sweep point: ``spec`` with ``overrides`` applied, sweep cleared."""
    changes: Dict[str, Any] = {"sweep": ()}
    for axis, value in overrides:
        if axis in ("requests", "seed"):
            changes[axis] = value
            continue
        section, _, fld = axis.partition(".")
        if section == "cluster":
            cluster = changes.get("cluster", spec.cluster)
            if cluster is None:
                raise ScenarioError(
                    f"sweep axis {axis!r} needs a 'cluster' section"
                )
            changes["cluster"] = cluster.replace(**{fld: value})
            continue
        ref = changes.get(section, getattr(spec, section))
        if ref is None:
            raise ScenarioError(
                f"sweep axis {axis!r} targets the absent {section!r} section"
            )
        changes[section] = ref.with_kwarg(fld, value)
    return replace(spec, **changes)


def expand_sweep(spec: ScenarioSpec) -> List[Tuple[str, ScenarioSpec]]:
    """Every sweep point as ``(point key, concrete spec)``.

    Axes iterate in sorted-name order (the spec stores them sorted) and
    values in their listed order, so expansion — and therefore result
    and catalog ordering — is deterministic and independent of the
    order axes were written in the document.
    """
    if not spec.sweep:
        return [(BASE_POINT_KEY, replace(spec, sweep=()))]
    axes = [axis for axis, _ in spec.sweep]
    value_lists = [values for _, values in spec.sweep]
    points = []
    for combo in itertools.product(*value_lists):
        overrides = tuple(zip(axes, combo))
        points.append((point_key(overrides), apply_point(spec, overrides)))
    return points


# ----------------------------------------------------------------------
# Component building
# ----------------------------------------------------------------------
def _accepts_kwarg(factory, name: str) -> bool:
    try:
        params = inspect.signature(factory).parameters
    except (TypeError, ValueError):
        return False
    if any(p.kind is p.VAR_KEYWORD for p in params.values()):
        return True
    return name in params


def build_apps(spec: ScenarioSpec) -> List:
    """The point's application mix, via the ``apps`` registry."""
    return REGISTRY.build("apps", spec.apps.name, **spec.apps.kwargs_dict())


def build_bindings(spec: ScenarioSpec) -> List[WorkloadBinding]:
    """Apps + arrival process bindings for one concrete point.

    The spec's top-level ``requests`` and ``seed`` flow into the
    arrival binder when its signature accepts them and the spec didn't
    set them explicitly — so ``requests: 4`` at the top of a document
    bounds every arrival style that is request-bounded, while trace
    binders (bounded by duration instead) are left alone.
    """
    apps = build_apps(spec)
    factory = REGISTRY.resolve("arrivals", spec.arrivals.name)
    kwargs = spec.arrivals.kwargs_dict()
    for name, value in (("requests", spec.requests), ("seed", spec.seed)):
        if name not in kwargs and _accepts_kwarg(factory, name):
            kwargs[name] = value
    return REGISTRY.build("arrivals", spec.arrivals.name, apps, **kwargs)


def build_faults(spec: ScenarioSpec):
    """The point's FaultPlan, or None without a ``faults`` section."""
    if spec.faults is None:
        return None
    return REGISTRY.build("faults", spec.faults.name, **spec.faults.kwargs_dict())


def build_slo(spec: ScenarioSpec, apps: Optional[Sequence] = None):
    """The point's SLOSpec, or None without an ``slo`` section."""
    if spec.slo is None:
        return None
    if apps is None:
        apps = build_apps(spec)
    return REGISTRY.build("slo", spec.slo.name, apps, **spec.slo.kwargs_dict())


def _bindings_for(spec: ScenarioSpec) -> List[WorkloadBinding]:
    # Module-level cell bindings factory (must pickle as a partial).
    return build_bindings(spec)


class ClusterCellSystem:
    """Adapter: one whole cluster serve, shaped like a sharing system.

    Lets a multi-GPU point ride the single-GPU ``ServeCell`` grid: the
    cell's "system" is the entire cluster controller, and ``serve``
    returns the merged :class:`ServingResult`.  The inner controller is
    forced to ``jobs=1``/``backend="inproc"`` — the *outer* grid already
    fans points across the pool, and a worker must never open a nested
    pool of its own.
    """

    def __init__(
        self,
        system: str,
        num_gpus: int = 2,
        placement: str = "best_fit",
        online: bool = False,
        migrate: bool = False,
        fault_plan=None,
        slo=None,
    ):
        self.system = system
        self.num_gpus = num_gpus
        self.placement = placement
        self.online = online
        self.migrate = migrate
        self.system_kwargs: Dict[str, Any] = {}
        if fault_plan is not None:
            self.system_kwargs["fault_plan"] = fault_plan
        if slo is not None:
            self.system_kwargs["slo"] = slo

    def serve(self, bindings: Sequence[WorkloadBinding]) -> ServingResult:
        from ..cluster.controller import ClusterController
        from ..cluster.online import AppArrival, OnlineClusterController

        factory = REGISTRY.resolve("system", self.system)
        policy = REGISTRY.resolve("placement", self.placement)
        if self.online:
            controller = OnlineClusterController(
                self.num_gpus,
                policy=policy,
                system_factory=factory,
                system_kwargs=self.system_kwargs,
                migrate=self.migrate,
            )
            # Online points stagger the mix in: two tenants per epoch,
            # everyone stays to the end — churn comes from arrivals.
            schedule = [
                AppArrival(binding=binding, arrive_epoch=index // 2)
                for index, binding in enumerate(bindings)
            ]
            return controller.serve(schedule, jobs=1, backend="inproc").merged
        controller = ClusterController(
            self.num_gpus,
            policy=policy,
            system_factory=factory,
            system_kwargs=self.system_kwargs,
        )
        return controller.serve(bindings, jobs=1, backend="inproc").merged


def _cell_system(spec: ScenarioSpec, system: str, fault_plan, slo):
    """(system_factory, system_kwargs) for one point × system cell."""
    REGISTRY.resolve("system", system)  # fail in the parent, not a worker
    kwargs: Dict[str, Any] = {}
    if fault_plan is not None:
        kwargs["fault_plan"] = fault_plan
    if slo is not None:
        kwargs["slo"] = slo
    if spec.cluster is None:
        return REGISTRY.resolve("system", system), kwargs
    REGISTRY.resolve("placement", spec.cluster.placement)
    kwargs.update(
        system=system,
        num_gpus=spec.cluster.gpus,
        placement=spec.cluster.placement,
        online=spec.cluster.online,
        migrate=spec.cluster.migrate,
    )
    return ClusterCellSystem, kwargs


def scenario_cells(spec: ScenarioSpec) -> List[ServeCell]:
    """The full point × system grid as ready-to-run cells."""
    cells: List[ServeCell] = []
    for key, point_spec in expand_sweep(spec):
        apps = build_apps(point_spec)
        fault_plan = build_faults(point_spec)
        slo = build_slo(point_spec, apps)
        for system in point_spec.systems:
            factory, kwargs = _cell_system(point_spec, system, fault_plan, slo)
            cells.append(
                ServeCell(
                    key=(key, system),
                    system=system,
                    system_factory=factory,
                    bindings_factory=partial(_bindings_for, point_spec),
                    system_kwargs=kwargs,
                )
            )
    return cells


def run_scenario(
    spec: ScenarioSpec,
    jobs: Optional[int] = None,
    backend: Optional[str] = None,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Run every point × system cell; ``{point: {system: metrics}}``.

    Metrics are the catalog's :func:`result_metrics` view of each
    :class:`ServingResult`, so scenario output and catalog rows agree.
    Cells fan out through :func:`repro.parallel.run_cells` (``jobs`` /
    ``backend`` follow the harness-wide policy) and every run is
    ingested under ``spec.name``.
    """
    cells = scenario_cells(spec)
    results = run_cells(cells, jobs=jobs, experiment=spec.name, backend=backend)
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for cell, result in zip(cells, results):
        key, system = cell.key
        out.setdefault(key, {})[system] = result_metrics(result)
    return out


def resolve_scenario(spec: ScenarioSpec) -> Dict[str, Any]:
    """Resolve every component of every point without simulating.

    The validation pass behind ``repro scenario show`` and
    ``tools/check_scenarios.py``: builds each point's apps, bindings,
    fault plan, and SLO spec, and resolves each named system and
    placement policy, so a committed zoo file that names a missing
    component or bad kwargs fails here — not halfway into a run.
    """
    points = expand_sweep(spec)
    apps_summary: List[str] = []
    cells = 0
    for _, point_spec in points:
        apps = build_apps(point_spec)
        bindings = build_bindings(point_spec)
        if len(bindings) != len(apps):
            raise ScenarioError(
                f"arrivals component {point_spec.arrivals.name!r} returned "
                f"{len(bindings)} bindings for {len(apps)} apps"
            )
        build_faults(point_spec)
        build_slo(point_spec, apps)
        for system in point_spec.systems:
            _cell_system(point_spec, system, None, None)
            cells += 1
        if not apps_summary:
            apps_summary = [app.app_id for app in apps]
    return {
        "name": spec.name,
        "points": len(points),
        "cells": cells,
        "systems": list(spec.systems),
        "apps": apps_summary,
    }


# ----------------------------------------------------------------------
# The committed scenario zoo
# ----------------------------------------------------------------------
_ZOO_SUFFIXES = (".yaml", ".yml", ".json")


def zoo_dir() -> Path:
    """Directory holding the committed scenario documents."""
    return Path(__file__).resolve().parent / "zoo"


def list_zoo() -> List[str]:
    """Sorted scenario names (file stems) in the zoo."""
    directory = zoo_dir()
    if not directory.is_dir():
        return []
    return sorted(
        path.stem
        for path in directory.iterdir()
        if path.suffix.lower() in _ZOO_SUFFIXES
    )


def find_scenario(name: str) -> Path:
    """Resolve ``name`` to a spec file: a path as-is, else a zoo entry."""
    path = Path(name)
    if path.suffix.lower() in _ZOO_SUFFIXES and path.is_file():
        return path
    for suffix in _ZOO_SUFFIXES:
        candidate = zoo_dir() / f"{name}{suffix}"
        if candidate.is_file():
            return candidate
    known = ", ".join(list_zoo()) or "<none>"
    raise ScenarioError(
        f"unknown scenario {name!r}; pass a spec file path or one of the "
        f"zoo scenarios: {known}"
    )


def load_zoo(name: str) -> ScenarioSpec:
    """Load a zoo scenario (or any spec file path) by name."""
    return load_scenario(find_scenario(name))
