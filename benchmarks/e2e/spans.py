"""Layer spans recorded from outside the program, around its public functions.

The traced rep installs a wrapper on every function listed in
``LAYERS`` before it builds its workload.  Each call records one span
``(name, start, end, parent)`` in memory; the rep writes them out when
it ends and ``stats.layer_totals`` turns them into per-layer self time.

Functions imported by name elsewhere (``repro.core.runtime`` imports
``generate_squad`` and ``quota_proportional_config``, several modules
import ``run_cells`` and ``result_metrics``) are patched in every
loaded ``repro`` module that holds them, and component-registry entries
are re-registered, so no call path keeps the unwrapped original.
Per-event functions such as ``SimEngine.schedule`` are deliberately not
wrapped: their span cost would swamp what they measure.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: layer -> [(module, attribute path)].  ``Class.method`` paths wrap the
#: method on that class; ``*`` as the class wraps it on every class of
#: the module that defines it.
LAYERS: Dict[str, List[Tuple[str, str]]] = {
    "gpusim.engine": [
        ("repro.gpusim.engine", "SimEngine.run"),
        ("repro.gpusim.engine", "SimEngine.launch_batch"),
    ],
    "core.squad": [("repro.core.squad", "generate_squad")],
    "core.configurator": [
        ("repro.core.configurator", "ExecutionConfigDeterminer.determine"),
        ("repro.core.configurator", "quota_proportional_config"),
    ],
    "core.kernel_manager": [
        ("repro.core.kernel_manager", "ConcurrentKernelManager.execute_squad"),
        ("repro.core.kernel_manager", "ConcurrentKernelManager.preempt_squad"),
    ],
    "core.profiler": [("repro.core.profiler", "OfflineProfiler.profile")],
    "gateway": [
        ("repro.gateway.gateway", "ServingGateway.admit"),
        ("repro.gateway.gateway", "ServingGateway.on_finish"),
        ("repro.gateway.gateway", "ServingGateway.on_shed"),
    ],
    "workloads": [
        ("repro.workloads.arrivals", "*.first_arrival"),
        ("repro.workloads.arrivals", "*.next_arrival"),
        ("repro.workloads.suite", "bind_*"),
        ("repro.scenarios.components", "bind_*"),
    ],
    "baselines": [
        ("repro.baselines.base", "SharingSystem.finish_request"),
        ("repro.baselines", "*.serve"),
        ("repro.baselines", "*.on_request_activated"),
        ("repro.core.runtime", "BlessRuntime.serve"),
        ("repro.core.runtime", "BlessRuntime.on_request_activated"),
    ],
    "cluster": [
        ("repro.cluster.placement", "ClusterPlacer.select"),
        ("repro.cluster.placement", "ClusterPlacer.place_all"),
        ("repro.cluster.placement", "ClusterPlacer.propose_migration"),
        ("repro.cluster.interference", "solve_placement"),
        ("repro.cluster.interference", "InterferenceEstimator.joint_us"),
        ("repro.cluster.online", "OnlineClusterController.serve"),
    ],
    "metrics": [
        ("repro.metrics.stats", "ServingResult.merge"),
        ("repro.catalog.ingest", "result_metrics"),
    ],
    "parallel": [("repro.parallel", "run_cells")],
    "catalog": [
        ("repro.catalog.ingest", "ingest_cells_safe"),
        ("repro.catalog.ingest", "ingest_metrics_safe"),
    ],
    "scenarios": [
        ("repro.scenarios.spec", "load_scenario"),
        ("repro.scenarios.runner", "scenario_cells"),
        ("repro.scenarios.runner", "expand_sweep"),
        ("repro.scenarios.runner", "build_bindings"),
    ],
}

# Imported before patching so every by-name import already exists and
# is found by the sys.modules scan.
_PRELOAD = (
    "repro",
    "repro.cli",
    "repro.cluster",
    "repro.scenarios",
    "repro.experiments.common",
    "repro.experiments.cluster_scale",
)
_SQUAD_FN = "repro.core.squad.generate_squad"


class SpanRecorder:
    """In-memory spans of one traced rep, plus the squad-size count.

    ``kernels_per_squad`` is counted at the ``generate_squad`` boundary
    rather than read from extras: ``ServingResult.merge`` sums every
    extra, so a cluster result's ``kernels_per_squad`` is a sum of
    per-GPU averages.
    """

    def __init__(self) -> None:
        self.spans: List[Optional[Tuple[str, float, float, int]]] = []
        self._stack: List[int] = [-1]
        self.layer_of: Dict[str, str] = {}
        # Non-empty squads only, as BlessRuntime counts them.
        self.squads = 0
        self.squad_kernels = 0

    def count_squad(self, squad) -> None:
        if squad.total_kernels:
            self.squads += 1
            self.squad_kernels += squad.total_kernels

    def wrap(self, fn: Callable, name: str, layer: str,
             observe: Optional[Callable] = None) -> Callable:
        spans = self.spans
        stack = self._stack
        self.layer_of[name] = layer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped_by_e2e__ = True
        return traced


def _targets(module_name: str, path: str):
    """Yield ``(owner, attribute, qualified name)`` for one LAYERS entry."""
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    if not owner_name:
        if attr.endswith("*"):
            prefix = attr[:-1]
            for name, value in sorted(vars(module).items()):
                if (
                    name.startswith(prefix)
                    and callable(value)
                    and getattr(value, "__module__", None) == module.__name__
                ):
                    yield module, name, f"{module.__name__}.{name}"
        else:
            yield module, attr, f"{module.__name__}.{attr}"
        return
    if owner_name == "*":
        classes = [
            value
            for value in _module_tree_classes(module)
            if attr in vars(value)
        ]
    else:
        classes = [getattr(module, owner_name)]
    for cls in classes:
        yield cls, attr, f"{cls.__module__}.{cls.__qualname__}.{attr}"


def _module_tree_classes(module):
    """Classes defined in ``module`` or, for a package, its loaded submodules."""
    prefix = module.__name__
    seen = set()
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == prefix or name.startswith(prefix + ".")):
            continue
        for value in vars(mod).values():
            if (
                isinstance(value, type)
                and value.__module__ == name
                and id(value) not in seen
            ):
                seen.add(id(value))
                yield value


def install(recorder: SpanRecorder) -> None:
    """Wrap every LAYERS function in this process."""
    for name in _PRELOAD:
        importlib.import_module(name)
    replaced: Dict[int, Callable] = {}
    for layer, entries in LAYERS.items():
        for module_name, path in entries:
            for owner, attr, qualname in _targets(module_name, path):
                raw = vars(owner)[attr]
                descriptor = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
                fn = raw.__func__ if descriptor else raw
                if getattr(fn, "__wrapped_by_e2e__", False):
                    continue
                observe = recorder.count_squad if qualname == _SQUAD_FN else None
                wrapped = recorder.wrap(fn, qualname, layer, observe)
                setattr(owner, attr, descriptor(wrapped) if descriptor else wrapped)
                if not isinstance(owner, type):
                    replaced[id(fn)] = wrapped
    _rebind_by_name(replaced)


def _rebind_by_name(replaced: Dict[int, Callable]) -> None:
    """Point by-name imports and registry entries at the wrappers."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            wrapped = replaced.get(id(value))
            if wrapped is not None:
                setattr(module, attr, wrapped)
    from repro.scenarios.registry import KINDS, REGISTRY

    for kind in KINDS:
        for component in REGISTRY.names(kind):
            wrapped = replaced.get(id(REGISTRY.resolve(kind, component)))
            if wrapped is not None:
                REGISTRY.register(kind, component, wrapped)
