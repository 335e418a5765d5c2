"""Resilience under injected faults (robustness extension, not in the paper).

The paper evaluates BLESS in a fault-free world.  This experiment asks
what the sharing systems do when that assumption breaks: kernels fail
transiently and are retried, one MPS context is torn down mid-run, and
slowdown spikes perturb durations away from the offline profiles.  The
sweep serves the same workload under increasing transient-failure rates
(plus one context crash) and reports, per system:

* ``completed`` / ``arrived`` — how much of the offered load finished;
* ``shed`` — requests dropped after a kernel exhausted its retries;
* ``retries`` — transient failures absorbed by in-place retry;
* ``degradation`` — total degradation events (retries, crashes, kills,
  relaunches, sheds — see ``FaultStats.degradation_events``).

The graceful-degradation claim (docs/robustness.md) is that under a
crash plus a 5% transient-failure rate every *non-faulted* request
still completes: ``completed + shed == arrived`` with ``shed`` small.
Everything is seeded, so two runs of this sweep are byte-identical.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Optional

from ..catalog.ingest import ingest_metrics_safe
from ..gpusim.faults import FaultPlan
from ..parallel import ServeCell, run_cells
from ..workloads.suite import bind_load, symmetric_pair
from .common import INFERENCE_SYSTEMS, format_table

_SYSTEMS = ("GSLICE", "UNBOUND", "BLESS")
_FAILURE_RATES = (0.0, 0.02, 0.05, 0.10)
# One restricted-context teardown early in the run (us).
_CRASH_AT_US = (4_000.0,)
_SEED = 1234


def make_plan(
    failure_rate: float,
    seed: int = _SEED,
    crash: bool = True,
    slowdown_rate: float = 0.05,
) -> FaultPlan:
    """The sweep's canonical plan for one failure-rate point."""
    return FaultPlan(
        seed=seed,
        kernel_failure_rate=failure_rate,
        slowdown_rate=slowdown_rate,
        slowdown_factor=2.0,
        context_crash_times=_CRASH_AT_US if crash else (),
        max_retries=4,
    )


def run(
    requests: int = 8,
    model: str = "R50",
    seed: int = _SEED,
    jobs: Optional[int] = None,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    apps = symmetric_pair(model)
    cells = []
    for rate in _FAILURE_RATES:
        plan = make_plan(rate, seed=seed)
        for name in _SYSTEMS:
            cells.append(
                ServeCell(
                    key=(rate, name),
                    system=name,
                    system_factory=INFERENCE_SYSTEMS[name],
                    bindings_factory=partial(bind_load, apps, "B", requests),
                    system_kwargs={"fault_plan": plan},
                )
            )
    results = run_cells(cells, jobs=jobs)

    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for cell, result in zip(cells, results):
        rate, name = cell.key
        extras = result.extras
        arrived = extras.get("fault_requests_arrived", float(len(result.records)))
        stats = {
            "arrived": arrived,
            "completed": float(len(result.records)),
            "shed": extras.get("fault_shed_requests", 0.0),
            "retries": extras.get("fault_transient_retries", 0.0),
            "degradation": extras.get("fault_degradation_events", 0.0),
            "mean_ms": result.mean_latency() / 1000.0,
        }
        out.setdefault(f"failure={rate:g}", {})[name] = stats
        # Scenario-level catalog row alongside the per-cell auto-ingest:
        # one row per (failure rate, system) grid point, gate-queryable.
        ingest_metrics_safe(
            "resilience",
            name,
            {
                "experiment": "resilience",
                "failure_rate": rate,
                "model": model,
                "requests": requests,
                "seed": seed,
            },
            {
                **stats,
                "throughput_qps": result.throughput_qps(),
                "p99_latency_us": result.percentile_latency(99),
            },
            seed=seed,
            jobs=jobs,
        )
    return out


def run_quick(requests: int = 4, jobs: Optional[int] = None):
    """CI-sized sweep (the fault-smoke golden pins this output)."""
    return run(requests=requests, jobs=jobs)


def main(jobs: Optional[int] = None) -> None:
    data = run(jobs=jobs)
    for scenario, systems in data.items():
        rows = [
            [
                name,
                f"{stats['completed']:.0f}/{stats['arrived']:.0f}",
                f"{stats['shed']:.0f}",
                f"{stats['retries']:.0f}",
                f"{stats['degradation']:.0f}",
                f"{stats['mean_ms']:.2f}",
            ]
            for name, stats in systems.items()
        ]
        print(
            format_table(
                ["system", "done", "shed", "retries", "degradation", "mean ms"],
                rows,
                title=f"{scenario} (+1 context crash, seed={_SEED})",
            )
        )
        print()


if __name__ == "__main__":
    main()
