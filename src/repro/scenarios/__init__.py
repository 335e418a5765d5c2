"""Declarative scenario framework: specs, component registry, runner.

``repro.scenarios`` turns the repo's evaluation axes into data: a YAML
or JSON document names registered components (application mixes,
arrival processes, fault plans, SLO mixes, sharing systems, placement
policies) plus the axes to sweep, and the matrix runner expands it
into the same ``ServeCell`` grids every experiment already uses —
pool-parallel, byte-identical to serial, auto-ingested into the
results catalog under the scenario name.

See ``docs/scenarios.md`` for the document schema, the component
catalog and the committed zoo.
"""

from .registry import (
    KINDS,
    REGISTRY,
    ComponentBuildError,
    ComponentRegistry,
    ScenarioError,
    UnknownComponentError,
    register,
)
from .spec import (
    SCHEMA_VERSION,
    ClusterSection,
    ComponentRef,
    ScenarioSpec,
    dumps,
    from_dict,
    load_scenario,
    loads,
)
from .runner import (
    BASE_POINT_KEY,
    build_apps,
    build_bindings,
    build_faults,
    build_slo,
    expand_sweep,
    find_scenario,
    list_zoo,
    load_zoo,
    point_key,
    resolve_scenario,
    run_scenario,
    scenario_cells,
    zoo_dir,
)

# Importing the built-in components registers them (idempotent).
from . import components as _components  # noqa: F401

__all__ = [
    "KINDS",
    "REGISTRY",
    "SCHEMA_VERSION",
    "BASE_POINT_KEY",
    "ComponentBuildError",
    "ComponentRegistry",
    "ClusterSection",
    "ComponentRef",
    "ScenarioError",
    "ScenarioSpec",
    "UnknownComponentError",
    "build_apps",
    "build_bindings",
    "build_faults",
    "build_slo",
    "dumps",
    "expand_sweep",
    "find_scenario",
    "from_dict",
    "list_zoo",
    "load_scenario",
    "load_zoo",
    "loads",
    "point_key",
    "register",
    "resolve_scenario",
    "run_scenario",
    "scenario_cells",
    "zoo_dir",
]
