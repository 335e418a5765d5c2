"""Fig. 14: average latency deviation under uneven quota assignments.

Nine pair-wise deployments (5 symmetric + 4 asymmetric "R50 + other")
are served under the seven Table-2 quota splits; each system's latency
deviation vs the ISO targets is averaged.  The paper reports TEMPORAL
14.3 ms, GSLICE 2.1 ms, BLESS 0.6 ms — and MIG infeasible for most of
these splits (fixed 1/7 slice granularity).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional

import numpy as np

from ..apps.models import MODEL_NAMES, inference_app
from ..baselines.iso import iso_targets_us
from ..metrics.deviation import latency_deviation_us
from ..parallel import ServeCell, run_cells
from ..workloads.suite import QUOTAS_2MODEL, bind_load
from .common import INFERENCE_SYSTEMS


def _pairs() -> List[List[str]]:
    symmetric = [[m, m] for m in MODEL_NAMES]
    asymmetric = [["R50", m] for m in MODEL_NAMES if m != "R50"]
    return symmetric + asymmetric


def run(
    load: str = "B",
    requests: int = 6,
    systems=("TEMPORAL", "GSLICE", "UNBOUND", "REEF+", "BLESS"),
    quotas=QUOTAS_2MODEL,
    jobs: Optional[int] = None,
    pairs: Optional[List[List[str]]] = None,
) -> Dict[str, float]:
    """Mean latency deviation (us) per system over pairs x quota splits
    (``pairs`` defaults to the nine deployments of the figure)."""
    combos = []
    cells: List[ServeCell] = []
    for model_a, model_b in pairs or _pairs():
        for quota_a, quota_b in quotas:
            apps = [
                inference_app(model_a).with_quota(quota_a, app_id="app1"),
                inference_app(model_b).with_quota(quota_b, app_id="app2"),
            ]
            bindings = partial(bind_load, apps, load, requests=requests)
            combos.append(bindings)
            for name in systems:
                cells.append(
                    ServeCell(
                        key=len(combos) - 1,
                        system=name,
                        system_factory=INFERENCE_SYSTEMS[name],
                        bindings_factory=bindings,
                    )
                )
    targets = [iso_targets_us(bindings()) for bindings in combos]
    deviations: Dict[str, List[float]] = {name: [] for name in systems}
    for cell, result in zip(cells, run_cells(cells, jobs=jobs)):
        deviations[cell.system].append(
            latency_deviation_us(result, targets[cell.key])
        )
    return {name: float(np.mean(values)) for name, values in deviations.items()}


def run_quick(
    load: str = "B", requests: int = 5, jobs: Optional[int] = None
) -> Dict[str, float]:
    """Smaller version for benches: 3 pairs x 3 quota splits."""
    return run(
        load=load,
        requests=requests,
        systems=("TEMPORAL", "GSLICE", "BLESS"),
        quotas=(QUOTAS_2MODEL[0], QUOTAS_2MODEL[3], QUOTAS_2MODEL[6]),
        jobs=jobs,
        pairs=[["R50", "R50"], ["R50", "VGG"], ["BERT", "BERT"]],
    )


def main(jobs: Optional[int] = None) -> None:
    data = run(jobs=jobs)
    print("Fig. 14: average latency deviation (ms), lower is better")
    for name, value in sorted(data.items(), key=lambda kv: kv[1], reverse=True):
        print(f"  {name:9s} {value / 1000.0:7.2f}")
    print("(paper: TEMPORAL 14.3, GSLICE 2.1, BLESS 0.6; MIG infeasible)")


if __name__ == "__main__":
    main()
