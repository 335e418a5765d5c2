"""Squad-scale lab: build and execute single kernel squads in isolation.

Used by the Fig. 10 / Fig. 17 / Fig. 19(b) experiments, which reason at
the granularity of one squad rather than a full serving run.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..apps.application import Application, Request
from ..core.config import BlessConfig
from ..core.configurator import ExecutionConfig, ExecutionConfigDeterminer
from ..core.kernel_manager import ConcurrentKernelManager
from ..core.profiler import AppProfile, OfflineProfiler
from ..core.squad import KernelSquad, SquadEntry
from ..gpusim.context import ContextRegistry
from ..gpusim.device import GPUDevice
from ..gpusim.engine import SimEngine


def build_squad(
    windows: Dict[str, Tuple[Application, int, int]]
) -> KernelSquad:
    """A squad made of each app's kernels in ``[start, end)``."""
    squad = KernelSquad()
    for app_id, (app, start, end) in windows.items():
        request = Request(
            app=app.with_quota(app.quota, app_id=app_id), arrival_time=0.0
        )
        entry = SquadEntry(request=request, kernel_indices=list(range(start, end)))
        squad.entries[app_id] = entry
    return squad


def measure_squad(
    squad: KernelSquad,
    partitions: Optional[Dict[str, int]],
    split_ratio: float = 1.0,
) -> float:
    """Execute one squad on a fresh simulated GPU; return its duration.

    ``split_ratio = 1.0`` is strict SP; lower values produce the static
    Semi-SP of §4.5.2; ``partitions = None`` is NSP.
    """
    config = BlessConfig(split_ratio=split_ratio, semi_sp_mode="static")
    engine = SimEngine(device=GPUDevice())
    registry = ContextRegistry(engine.device)
    manager = ConcurrentKernelManager(engine, registry, config)
    for app_id in squad.app_ids:
        manager.register_client(app_id)
    exec_config = ExecutionConfig(partitions=partitions, predicted_duration_us=0.0)
    done: Dict[str, float] = {}
    manager.execute_squad(
        squad,
        exec_config,
        on_kernel_finish=lambda k: None,
        on_done=lambda ex: done.setdefault("duration", ex.duration_us),
    )
    engine.run()
    return done["duration"]


def measure_sequential(squad: KernelSquad) -> float:
    """SEQ policy: all squad kernels drain one device queue in order."""
    engine = SimEngine(device=GPUDevice())
    registry = ContextRegistry(engine.device)
    context = registry.create("seq", 1.0, charge_memory=False)
    queue = engine.create_queue(context)
    start = engine.now
    for entry in squad.entries.values():
        for kernel in entry.request.make_kernels(entry.kernel_indices):
            engine.launch(kernel, queue)
    engine.run()
    return engine.now - start


def best_partitions(
    squad: KernelSquad,
    profiles: Dict[str, AppProfile],
    config: Optional[BlessConfig] = None,
) -> Dict[str, int]:
    """The determiner's optimal strict-spatial split for a squad."""
    determiner = ExecutionConfigDeterminer(config or BlessConfig())
    result = determiner._best_spatial(squad, profiles)  # noqa: SLF001
    if result is None or result.partitions is None:
        raise RuntimeError("no spatial configuration available")
    return result.partitions


def profiles_for(
    windows: Dict[str, Tuple[Application, int, int]],
    config: Optional[BlessConfig] = None,
) -> Dict[str, AppProfile]:
    profiler = OfflineProfiler(config=config or BlessConfig())
    return {
        app_id: profiler.profile(app) for app_id, (app, _, _) in windows.items()
    }
