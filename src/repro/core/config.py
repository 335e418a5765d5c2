"""BLESS configuration knobs (hyper-parameters of §6.7 and §6.9)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

# Host-side scheduling costs per kernel (§6.9): multi-task scheduling
# 3.7us + configuration search 2us + squad generation 1us.
MULTITASK_SCHED_US_PER_KERNEL = 3.7
CONFIG_SEARCH_US_PER_KERNEL = 2.0
SQUAD_GENERATION_US_PER_KERNEL = 1.0
#: Total host-side scheduling time per kernel (6.7us, §6.9).
SCHEDULING_US_PER_KERNEL = (
    MULTITASK_SCHED_US_PER_KERNEL
    + CONFIG_SEARCH_US_PER_KERNEL
    + SQUAD_GENERATION_US_PER_KERNEL
)


@dataclass(frozen=True)
class BlessConfig:
    """Tunable parameters of the BLESS runtime.

    Defaults follow the paper's testbed choices: ``N = 18`` SM
    partitions on a 108-SM A100, at most 50 kernels per squad, and a
    50% Semi-SP split ratio.
    """

    # N — number of SM partitions the profiler measures and the
    # configuration determiner searches over (§4.2.1).
    num_partitions: int = 18
    # Maximum kernels per squad (§4.3.2; set to 50 in the testbed).
    max_kernels_per_squad: int = 50
    # Semi-SP split ratio c%: this fraction of each request's squad
    # kernels runs spatially restricted, the rest unrestricted (§4.5.2).
    split_ratio: float = 0.5
    # When only one request is active the squad is capped to this
    # fraction of max_kernels_per_squad, keeping squad boundaries — the
    # only points where resources can be re-configured — frequent, so a
    # newly arriving request shrinks the running one's resources
    # "instantly" (§3.3) instead of waiting out a full-size squad.
    solo_squad_fraction: float = 0.5
    # Time cap on solo squads (profiled full-GPU time).  Kernel counts
    # alone cannot bound the reconfiguration latency: 25 VGG kernels
    # are ~6.6 ms while 25 BERT kernels are ~0.7 ms.  A new arrival
    # never waits longer than roughly this budget.
    solo_squad_budget_us: float = 1_000.0
    # Semi-SP rear selection: "adaptive" sizes each request's
    # unrestricted rear to the kernels predicted to outlive the
    # shortest co-runner stack (Fig. 7(c)'s motivation); "static"
    # applies the fixed split ratio c% of §4.5.2.
    semi_sp_mode: str = "adaptive"
    # Ablation switches (Fig. 20).
    use_multitask_scheduler: bool = True
    use_config_determiner: bool = True
    # Per-app QoS targets in us (§6.5).  When set for an app, the
    # scheduler paces it against this target instead of its ISO latency.
    slo_targets_us: Optional[Dict[str, float]] = None

    def __post_init__(self) -> None:
        if self.num_partitions < 2:
            raise ValueError("need at least 2 SM partitions")
        if self.max_kernels_per_squad < 1:
            raise ValueError("squads must allow at least one kernel")
        if not 0.0 <= self.split_ratio <= 1.0:
            raise ValueError("split_ratio must be in [0, 1]")
        if not 0.0 < self.solo_squad_fraction <= 1.0:
            raise ValueError("solo_squad_fraction must be in (0, 1]")
        if self.semi_sp_mode not in ("adaptive", "static"):
            raise ValueError("semi_sp_mode must be 'adaptive' or 'static'")

    def partition_fraction(self, index: int) -> float:
        """SM fraction of partition ``index`` (1-based, up to N)."""
        if not 1 <= index <= self.num_partitions:
            raise ValueError(
                f"partition index must be in [1, {self.num_partitions}], got {index}"
            )
        return index / self.num_partitions

    def nearest_partition(self, fraction: float) -> int:
        """The partition index closest to an arbitrary SM fraction."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        return min(
            self.num_partitions, max(1, round(fraction * self.num_partitions))
        )


DEFAULT_CONFIG = BlessConfig()
