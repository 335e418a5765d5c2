"""§6.3 "Performance with real-world traces" (workload D).

Mutual pairs of the five inference models replay synthetic Twitter-2018
and Azure-Functions traces.  Paper: with the Twitter trace at 50/50
quotas BLESS cuts latency 18.4%/20.5%/7.3% vs TEMPORAL/MIG/GSLICE; with
the sparse Azure trace the cuts grow to 49.3%/41.2%/32.1% thanks to the
abundant bubbles.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..apps.models import inference_app
from ..parallel import ServeCell, run_cells
from ..workloads.suite import bind_trace, mutual_pairs
from .common import INFERENCE_SYSTEMS, format_table, mean_latency_ms

_SYSTEMS = ("TEMPORAL", "MIG", "GSLICE", "BLESS")

# Twitter is dense (tenancy close to saturation — but stable: co-run
# service at a 50% partition is ~1.5x solo, so the arrival interval
# must exceed that), Azure sparse/low-load.
_TRACE_PARAMS = {
    "twitter": {"mean_interval_factor": 2.5, "duration_intervals": 15.0},
    "azure": {"mean_interval_factor": 4.0, "duration_intervals": 10.0},
}


def run(
    pairs: Sequence[Tuple[str, str]] = None,
    seed: int = 11,
    jobs: Optional[int] = None,
) -> Dict[str, Dict[str, float]]:
    """Mean latency per system per trace, averaged over model pairs."""
    chosen_pairs = list(pairs) if pairs is not None else mutual_pairs()[:4]
    cells: List[ServeCell] = []
    for trace, params in _TRACE_PARAMS.items():
        for index, (model_a, model_b) in enumerate(chosen_pairs):
            apps = [
                inference_app(model_a).with_quota(0.5, app_id="app1"),
                inference_app(model_b).with_quota(0.5, app_id="app2"),
            ]
            bindings = partial(
                bind_trace, apps, trace=trace, seed=seed + index, **params
            )
            for name in _SYSTEMS:
                cells.append(
                    ServeCell(
                        key=trace,
                        system=name,
                        system_factory=INFERENCE_SYSTEMS[name],
                        bindings_factory=bindings,
                    )
                )
    sums: Dict[str, Dict[str, List[float]]] = {
        trace: {name: [] for name in _SYSTEMS} for trace in _TRACE_PARAMS
    }
    for cell, result in zip(cells, run_cells(cells, jobs=jobs)):
        sums[cell.key][cell.system].append(mean_latency_ms(result))

    out: Dict[str, Dict[str, float]] = {}
    for trace in _TRACE_PARAMS:
        out[trace] = {name: float(np.mean(v)) for name, v in sums[trace].items()}
        bless = out[trace]["BLESS"]
        for name in _SYSTEMS:
            if name != "BLESS":
                out[trace][f"reduction_vs_{name}"] = 1.0 - bless / out[trace][name]
    return out


def main(jobs: Optional[int] = None) -> None:
    data = run(jobs=jobs)
    for trace, stats in data.items():
        rows = [
            [name, f"{stats[name]:.2f}",
             f"{stats.get('reduction_vs_' + name, 0):.1%}" if name != "BLESS" else "-"]
            for name in _SYSTEMS
        ]
        print(format_table(["system", "avg latency (ms)", "BLESS reduction"],
                           rows, title=f"Workload D: {trace} trace"))
        print()
    print("(paper: twitter 18.4/20.5/7.3% vs TEMPORAL/MIG/GSLICE; "
          "azure 49.3/41.2/32.1%)")


if __name__ == "__main__":
    main()
