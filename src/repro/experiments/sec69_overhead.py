"""§6.9: scheduling overhead accounting.

Measures the three runtime overheads the paper quantifies — the kernel
squad switch (~20 us sync + ~3 us first launch), the GPU context switch
(~50 us vacuum), and the host-side scheduling time per kernel (6.7 us:
3.7 multi-task + 2 search + 1 generation) — plus the extra GPU memory
each MPS context consumes (~230 MB).
"""

from __future__ import annotations

from typing import Dict

from ..core.config import (
    CONFIG_SEARCH_US_PER_KERNEL,
    MULTITASK_SCHED_US_PER_KERNEL,
    SCHEDULING_US_PER_KERNEL,
    SQUAD_GENERATION_US_PER_KERNEL,
    BlessConfig,
)
from ..core.runtime import BlessRuntime
from ..gpusim.device import GPUSpec
from ..workloads.suite import bind_load, symmetric_pair
from .common import format_table


def run(requests: int = 6) -> Dict[str, float]:
    spec = GPUSpec()
    config = BlessConfig()

    # Measured from a real serving run: squads and context switches.
    runtime = BlessRuntime(config=config, gpu_spec=spec)
    result = runtime.serve(bind_load(symmetric_pair("R50"), "B", requests=requests))
    squads = result.extras.get("squads", 0.0)
    switches = result.extras.get("context_switches", 0.0)

    mps_contexts = len(
        [c for c in runtime.registry.contexts if c.restricted]
    )
    mps_memory_mb = mps_contexts * spec.mps_context_mb

    return {
        "squad_sync_us": spec.sync_overhead_us,
        "kernel_launch_us": spec.kernel_launch_us,
        "context_switch_us": spec.context_switch_us,
        "sched_us_per_kernel": SCHEDULING_US_PER_KERNEL,
        "multitask_us": MULTITASK_SCHED_US_PER_KERNEL,
        "search_us": CONFIG_SEARCH_US_PER_KERNEL,
        "generation_us": SQUAD_GENERATION_US_PER_KERNEL,
        "mps_context_mb": float(spec.mps_context_mb),
        "measured_squads": squads,
        "measured_context_switches": switches,
        "measured_mps_contexts": float(mps_contexts),
        "measured_mps_memory_mb": float(mps_memory_mb),
    }


def main(jobs=None) -> None:
    data = run()
    rows = [
        ["squad switch sync", f"{data['squad_sync_us']:.0f} us", "20 us"],
        ["kernel launch", f"{data['kernel_launch_us']:.0f} us", "3 us"],
        ["GPU context switch", f"{data['context_switch_us']:.0f} us", "50 us"],
        ["multi-task scheduling", f"{data['multitask_us']:.1f} us/kernel", "3.7 us"],
        ["config-space search", f"{data['search_us']:.1f} us/kernel", "2 us"],
        ["squad generation", f"{data['generation_us']:.1f} us/kernel", "1 us"],
        ["total scheduling", f"{data['sched_us_per_kernel']:.1f} us/kernel", "6.7 us"],
        ["MPS context memory", f"{data['mps_context_mb']:.0f} MB", "~230 MB"],
    ]
    print(format_table(["overhead", "modelled", "paper"], rows, "§6.9 overheads"))
    print(
        f"\nmeasured in a serving run: {data['measured_squads']:.0f} squads, "
        f"{data['measured_context_switches']:.0f} context switches, "
        f"{data['measured_mps_contexts']:.0f} MPS contexts "
        f"({data['measured_mps_memory_mb']:.0f} MB)"
    )


if __name__ == "__main__":
    main()
