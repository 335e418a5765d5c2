"""BLESS core: the paper's contribution (profiler, scheduler, determiner,
kernel manager, runtime)."""

from .config import DEFAULT_CONFIG, BlessConfig
from .configurator import (
    ExecutionConfig,
    ExecutionConfigDeterminer,
    composition_count,
    quota_proportional_config,
)
from .deployment import AdmissionReport, check_admission
from .kernel_manager import ConcurrentKernelManager, SquadExecution
from .predictors import (
    interference_free_estimate,
    workload_equivalence_estimate,
)
from .profiler import AppProfile, OfflineProfiler, profile_via_simulation
from .progress import RequestProgress
from .runtime import BlessRuntime
from .squad import KernelSquad, SquadEntry, generate_squad

__all__ = [
    "AdmissionReport",
    "AppProfile",
    "BlessConfig",
    "BlessRuntime",
    "check_admission",
    "composition_count",
    "ConcurrentKernelManager",
    "DEFAULT_CONFIG",
    "ExecutionConfig",
    "ExecutionConfigDeterminer",
    "generate_squad",
    "interference_free_estimate",
    "KernelSquad",
    "OfflineProfiler",
    "profile_via_simulation",
    "quota_proportional_config",
    "RequestProgress",
    "SquadEntry",
    "SquadExecution",
    "workload_equivalence_estimate",
]
