"""Component registry: named, resolvable scenario building blocks.

A scenario spec (:mod:`repro.scenarios.spec`) never imports python
objects — it names components by ``(kind, name)`` registry key plus
kwargs, and this registry resolves them.  The shape follows vivarium's
component manager split (PAPERS.md): the framework owns the *kinds*
(what slots a scenario has), while the components register themselves
with :func:`register`.

Kinds
-----
``apps``       application-mix factories → ``List[Application]``
``arrivals``   binders ``(apps, requests=..., **kw) → List[WorkloadBinding]``
``faults``     fault-plan factories → :class:`~repro.gpusim.faults.FaultPlan`
``slo``        gateway-spec builders ``(apps, **kw) → SLOSpec``
``system``     sharing-system factories (the §6.1 comparison matrix)
``placement``  cluster placement policies → :class:`PlacementPolicy`
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, List, Optional, Tuple

KINDS: Tuple[str, ...] = (
    "apps",
    "arrivals",
    "faults",
    "slo",
    "system",
    "placement",
)

class ScenarioError(ValueError):
    """Base class for every scenario framework error."""


class UnknownComponentError(ScenarioError):
    """A spec named a component the registry does not know."""


class ComponentBuildError(ScenarioError):
    """A component factory rejected the spec's kwargs."""


class ComponentRegistry:
    """Maps ``(kind, name)`` keys to component factories."""

    def __init__(self) -> None:
        self._components: Dict[Tuple[str, str], Callable] = {}

    # ------------------------------------------------------------------
    def register(
        self, kind: str, name: str, factory: Optional[Callable] = None
    ) -> Callable:
        """Register ``factory`` under ``(kind, name)``; decorator-friendly.

        Re-registering a key overwrites it (last wins).
        """
        if kind not in KINDS:
            raise ScenarioError(
                f"unknown component kind {kind!r}; expected one of {KINDS}"
            )
        if factory is None:
            def decorator(fn: Callable) -> Callable:
                self._components[(kind, name)] = fn
                return fn

            return decorator
        self._components[(kind, name)] = factory
        return factory

    def names(self, kind: str) -> List[str]:
        """Sorted component names registered under ``kind``."""
        return sorted(n for k, n in self._components if k == kind)

    def resolve(self, kind: str, name: str) -> Callable:
        """The factory for ``(kind, name)``; raise listing alternatives."""
        factory = self._components.get((kind, name))
        if factory is None:
            known = ", ".join(self.names(kind)) or "<none>"
            raise UnknownComponentError(
                f"unknown {kind} component {name!r}; registered {kind} "
                f"components: {known}"
            )
        return factory

    def build(self, kind: str, name: str, *args, **kwargs):
        """Resolve and call a component, turning bad kwargs into a
        :class:`ComponentBuildError` that names the component and its
        accepted signature instead of a bare ``TypeError``."""
        factory = self.resolve(kind, name)
        try:
            return factory(*args, **kwargs)
        except TypeError as exc:
            try:
                signature = str(inspect.signature(factory))
            except (TypeError, ValueError):  # builtins without signatures
                signature = "(...)"
            raise ComponentBuildError(
                f"{kind} component {name!r} rejected kwargs "
                f"{sorted(kwargs)}: {exc} (signature: {name}{signature})"
            ) from exc


#: The process-global registry every spec resolves against.
REGISTRY = ComponentRegistry()


def register(kind: str, name: str, factory: Optional[Callable] = None):
    """Module-level shorthand for ``REGISTRY.register``."""
    return REGISTRY.register(kind, name, factory)

