"""Fig. 15: beyond pair-wise sharing — 4 and 8 co-located applications.

Requests from all applications arrive at the same time; quotas follow
Table 2's 4-model (10/20/30/40%) and 8-model (5..20%) menus.  The paper
reports BLESS reducing average latency by 41.2%/18.3% (4 apps, vs
TEMPORAL/GSLICE) and 80.8%/35.5% (8 apps), with zero latency deviation
for BLESS.  REEF+ is excluded (its static even split cannot be chosen
optimally at runtime for many apps, §6.4).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional

from ..baselines.iso import iso_targets_us
from ..metrics.deviation import latency_deviation_us
from ..parallel import ServeCell, run_cells
from ..workloads.suite import bind_load, multi_app_mix
from .common import INFERENCE_SYSTEMS, format_table, mean_latency_ms

_SYSTEMS = ("TEMPORAL", "GSLICE", "UNBOUND", "BLESS")


def run(
    requests: int = 5, load: str = "B", jobs: Optional[int] = None
) -> Dict[int, Dict[str, Dict[str, float]]]:
    cells: List[ServeCell] = []
    targets: Dict[int, Dict[str, float]] = {}
    for count in (4, 8):
        apps = multi_app_mix(count)
        bindings = partial(bind_load, apps, load, requests=requests)
        targets[count] = iso_targets_us(bindings())
        for name in _SYSTEMS:
            cells.append(
                ServeCell(
                    key=count,
                    system=name,
                    system_factory=INFERENCE_SYSTEMS[name],
                    bindings_factory=bindings,
                )
            )
    out: Dict[int, Dict[str, Dict[str, float]]] = {}
    for cell, result in zip(cells, run_cells(cells, jobs=jobs)):
        out.setdefault(cell.key, {})[cell.system] = {
            "mean_ms": mean_latency_ms(result),
            "deviation_ms": latency_deviation_us(result, targets[cell.key]) / 1000.0,
        }
    return out


def main(jobs: Optional[int] = None) -> None:
    data = run(jobs=jobs)
    for count, systems in data.items():
        rows = [
            [name, f"{stats['mean_ms']:.2f}", f"{stats['deviation_ms']:.2f}"]
            for name, stats in systems.items()
        ]
        print(
            format_table(
                ["system", "avg latency (ms)", "deviation (ms)"],
                rows,
                title=f"Fig. 15: {count} co-located applications",
            )
        )
        bless = systems["BLESS"]["mean_ms"]
        for ref in ("TEMPORAL", "GSLICE"):
            print(f"  BLESS vs {ref}: {1 - bless / systems[ref]['mean_ms']:.1%}")
        print()


if __name__ == "__main__":
    main()
