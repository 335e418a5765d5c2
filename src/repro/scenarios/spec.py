"""Declarative scenario specs: schema, validation, (de)serialization.

A scenario is data, not code: a YAML (or JSON) document that *names*
components from the registry and the axes to sweep.  The pinned
``schema_version`` keeps committed zoo files honest — a framework
change that would reinterpret old specs must bump the version, and a
spec written for another version fails loudly instead of silently
resolving differently.

Top-level schema (version 1)::

    schema_version: 1                  # required, must equal 1
    name: llm-inference-tails          # required; catalog experiment key
    description: free text             # optional
    apps:                              # required component ref
      component: models
      kwargs: {models: [R50, BERT]}
    arrivals: {component: load, kwargs: {load: B}}   # required
    systems: [GSLICE, BLESS]           # required, registry "system" keys
    faults: {component: spec, kwargs: {spec: failure=0.05}}   # optional
    slo: {component: alternating, kwargs: {deadline_factor: 2}} # optional
    cluster: {gpus: 4, placement: best_fit, online: true}       # optional
    requests: 8                        # per-client request budget
    seed: 0                            # workload seed offset
    sweep:                             # optional: axis -> values
      arrivals.factor: [0.5, 1.0]
      cluster.gpus: [2, 4]

A component ref is either a bare string (``arrivals: continuous``) or a
mapping with only ``component`` and ``kwargs`` keys.  Sweep axis names
are dotted paths: ``<section>.<kwarg>`` for the four component sections
(``apps``/``arrivals``/``faults``/``slo``), ``cluster.<field>``, or the
bare runner scalars ``requests``/``seed``.

YAML needs the optional ``[yaml]`` extra (PyYAML); JSON always works,
so the core stays dependency-free.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from .registry import ScenarioError

#: Pinned spec schema version.  Bump on any change that reinterprets
#: existing documents; loading any other version is an error.
SCHEMA_VERSION = 1

_TOP_LEVEL_KEYS = {
    "schema_version",
    "name",
    "description",
    "apps",
    "arrivals",
    "systems",
    "faults",
    "slo",
    "cluster",
    "requests",
    "seed",
    "sweep",
}
_CLUSTER_KEYS = {"gpus", "placement", "online", "migrate"}
#: Component sections a sweep axis may target (plus cluster/runner).
COMPONENT_SECTIONS = ("apps", "arrivals", "faults", "slo")
RUNNER_AXES = ("requests", "seed")


def _is_int(value: Any) -> bool:
    """An integer proper: ``bool`` is an ``int`` subclass, but ``true``
    in a document is not a count."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ComponentRef:
    """A ``(registry name, kwargs)`` reference; kwargs stay data."""

    name: str
    kwargs: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def parse(cls, value: Any, section: str) -> "ComponentRef":
        if isinstance(value, str):
            return cls(name=value)
        if isinstance(value, Mapping):
            unknown = set(value) - {"component", "kwargs"}
            if unknown:
                raise ScenarioError(
                    f"{section}: unknown component-ref keys {sorted(unknown)} "
                    "(a ref is a string or {component, kwargs})"
                )
            name = value.get("component")
            if not isinstance(name, str) or not name:
                raise ScenarioError(f"{section}: component name must be a string")
            kwargs = value.get("kwargs", {})
            if not isinstance(kwargs, Mapping):
                raise ScenarioError(f"{section}: kwargs must be a mapping")
            return cls(name=name, kwargs=tuple(sorted(kwargs.items())))
        raise ScenarioError(
            f"{section}: expected a component name or mapping, got "
            f"{type(value).__name__}"
        )

    def kwargs_dict(self) -> Dict[str, Any]:
        return dict(self.kwargs)

    def with_kwarg(self, key: str, value: Any) -> "ComponentRef":
        kwargs = self.kwargs_dict()
        kwargs[key] = value
        return ComponentRef(name=self.name, kwargs=tuple(sorted(kwargs.items())))

    def to_dict(self) -> Dict[str, Any]:
        return {"component": self.name, "kwargs": self.kwargs_dict()}


@dataclass(frozen=True)
class ClusterSection:
    """Optional multi-GPU topology: run each point through the
    §4.2.2 cluster controller instead of a single-GPU serve."""

    gpus: int = 2
    placement: str = "best_fit"
    online: bool = False
    migrate: bool = False

    def __post_init__(self) -> None:
        if not _is_int(self.gpus) or self.gpus < 1:
            raise ScenarioError(
                f"cluster.gpus must be an integer >= 1, got {self.gpus!r}"
            )

    def replace(self, **changes) -> "ClusterSection":
        import dataclasses

        return dataclasses.replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "gpus": self.gpus,
            "placement": self.placement,
            "online": self.online,
            "migrate": self.migrate,
        }


@dataclass(frozen=True)
class ScenarioSpec:
    """One validated scenario document."""

    name: str
    apps: ComponentRef
    arrivals: ComponentRef
    systems: Tuple[str, ...]
    description: str = ""
    faults: Optional[ComponentRef] = None
    slo: Optional[ComponentRef] = None
    cluster: Optional[ClusterSection] = None
    requests: int = 8
    seed: int = 0
    # axis -> swept values, axes sorted by name (canonical order).
    sweep: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        # Here rather than in from_dict, so that sweep points (built
        # with dataclasses.replace) are checked too.
        if not _is_int(self.schema_version) or self.schema_version != SCHEMA_VERSION:
            raise ScenarioError(
                f"schema_version must be {SCHEMA_VERSION}, "
                f"got {self.schema_version!r}"
            )
        if not _is_int(self.requests) or self.requests < 1:
            raise ScenarioError(
                f"'requests' must be a positive integer, got {self.requests!r}"
            )
        if not _is_int(self.seed):
            raise ScenarioError(f"'seed' must be an integer, got {self.seed!r}")

    def to_dict(self) -> Dict[str, Any]:
        """Canonical plain-data form; ``from_dict`` round-trips it."""
        payload: Dict[str, Any] = {
            "schema_version": self.schema_version,
            "name": self.name,
            "description": self.description,
            "apps": self.apps.to_dict(),
            "arrivals": self.arrivals.to_dict(),
            "systems": list(self.systems),
            "requests": self.requests,
            "seed": self.seed,
        }
        if self.faults is not None:
            payload["faults"] = self.faults.to_dict()
        if self.slo is not None:
            payload["slo"] = self.slo.to_dict()
        if self.cluster is not None:
            payload["cluster"] = self.cluster.to_dict()
        if self.sweep:
            payload["sweep"] = {axis: list(values) for axis, values in self.sweep}
        return payload


def from_dict(payload: Mapping[str, Any], source: str = "<dict>") -> ScenarioSpec:
    """Validate a plain-data document into a :class:`ScenarioSpec`."""
    if not isinstance(payload, Mapping):
        raise ScenarioError(f"{source}: scenario document must be a mapping")
    unknown = set(payload) - _TOP_LEVEL_KEYS
    if unknown:
        raise ScenarioError(
            f"{source}: unknown top-level keys {sorted(unknown)}; "
            f"allowed: {sorted(_TOP_LEVEL_KEYS)}"
        )
    version = payload.get("schema_version")
    if not _is_int(version) or version != SCHEMA_VERSION:
        raise ScenarioError(
            f"{source}: schema_version must be {SCHEMA_VERSION}, got {version!r} "
            "(this framework only reads specs it can interpret faithfully)"
        )
    name = payload.get("name")
    if not isinstance(name, str) or not name:
        raise ScenarioError(f"{source}: 'name' is required and must be a string")
    for required in ("apps", "arrivals"):
        if required not in payload:
            raise ScenarioError(f"{source}: '{required}' section is required")
    systems = payload.get("systems")
    if (
        not isinstance(systems, (list, tuple))
        or not systems
        or not all(isinstance(s, str) for s in systems)
    ):
        raise ScenarioError(
            f"{source}: 'systems' must be a non-empty list of system names"
        )

    cluster = None
    if "cluster" in payload:
        section = payload["cluster"]
        if not isinstance(section, Mapping):
            raise ScenarioError(f"{source}: 'cluster' must be a mapping")
        unknown = set(section) - _CLUSTER_KEYS
        if unknown:
            raise ScenarioError(
                f"{source}: unknown cluster keys {sorted(unknown)}; "
                f"allowed: {sorted(_CLUSTER_KEYS)}"
            )
        cluster = ClusterSection(**dict(section))

    sweep_section = payload.get("sweep", {})
    if not isinstance(sweep_section, Mapping):
        raise ScenarioError(f"{source}: 'sweep' must be a mapping of axis -> values")
    sweep = []
    for axis in sorted(sweep_section):
        values = sweep_section[axis]
        if not isinstance(values, (list, tuple)) or not values:
            raise ScenarioError(
                f"{source}: sweep axis {axis!r} must list at least one value"
            )
        _validate_axis(axis, cluster, source)
        sweep.append((axis, tuple(values)))

    try:
        return ScenarioSpec(
            name=name,
            description=str(payload.get("description", "")).strip(),
            apps=ComponentRef.parse(payload["apps"], "apps"),
            arrivals=ComponentRef.parse(payload["arrivals"], "arrivals"),
            systems=tuple(systems),
            faults=(
                ComponentRef.parse(payload["faults"], "faults")
                if "faults" in payload
                else None
            ),
            slo=ComponentRef.parse(payload["slo"], "slo") if "slo" in payload else None,
            cluster=cluster,
            requests=payload.get("requests", 8),
            seed=payload.get("seed", 0),
            sweep=tuple(sweep),
        )
    except ScenarioError as exc:
        raise ScenarioError(f"{source}: {exc}") from None


def _validate_axis(
    axis: str, cluster: Optional[ClusterSection], source: str
) -> None:
    """A sweep axis must target a real, overridable spot in the spec."""
    if axis in RUNNER_AXES:
        return
    section, _, rest = axis.partition(".")
    if section == "cluster":
        if cluster is None:
            raise ScenarioError(
                f"{source}: sweep axis {axis!r} needs a 'cluster' section"
            )
        if rest not in _CLUSTER_KEYS:
            raise ScenarioError(
                f"{source}: unknown cluster sweep field {rest!r}; "
                f"allowed: {sorted(_CLUSTER_KEYS)}"
            )
        return
    if section in COMPONENT_SECTIONS and rest:
        return
    raise ScenarioError(
        f"{source}: sweep axis {axis!r} is not sweepable; use "
        f"'<section>.<kwarg>' with section in {COMPONENT_SECTIONS}, "
        f"'cluster.<field>', or one of {RUNNER_AXES}"
    )


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
def dumps(spec: ScenarioSpec) -> str:
    """Canonical JSON text: sorted keys, stable across round-trips."""
    return json.dumps(spec.to_dict(), sort_keys=True, indent=2) + "\n"


def loads(text: str, fmt: str = "json", source: str = "<text>") -> ScenarioSpec:
    """Parse ``text`` (``fmt`` = ``json`` or ``yaml``) into a spec."""
    if fmt == "json":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{source}: invalid JSON: {exc}") from exc
    elif fmt == "yaml":
        payload = _load_yaml(text, source)
    else:
        raise ScenarioError(f"unknown scenario format {fmt!r} (json or yaml)")
    return from_dict(payload, source=source)


def _load_yaml(text: str, source: str):
    try:
        import yaml
    except ImportError:
        raise ScenarioError(
            f"{source}: reading YAML scenarios needs PyYAML — install the "
            "[yaml] extra (pip install 'repro[yaml]') or use a .json spec"
        ) from None
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{source}: invalid YAML: {exc}") from exc


def load_scenario(path: Union[str, Path]) -> ScenarioSpec:
    """Load a spec file; the extension picks the format."""
    path = Path(path)
    fmt = "yaml" if path.suffix.lower() in (".yaml", ".yml") else "json"
    return loads(path.read_text(encoding="utf-8"), fmt=fmt, source=str(path))
