"""Extra ablations of this reproduction's own design choices.

Beyond the paper's Fig. 20 (multi-task scheduler / determiner), two
mechanism choices called out in DESIGN.md are swept here:

* ``semi_sp_mode`` — adaptive rears vs the paper's static c% split;
* ``solo squad budget`` — how tightly solo streaming is chopped, which
  bounds a newly arriving request's reconfiguration wait.

Each sweep reports the average latency of the standard medium-load
symmetric pairs, so the cost/benefit of every choice is measurable.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..core.config import BlessConfig
from ..core.runtime import BlessRuntime
from ..workloads.suite import bind_load, symmetric_pair
from .common import format_table, mean_latency_ms

_MODELS = ("VGG", "R50", "BERT")


def _mean_over_pairs(requests: int, load: str, **runtime_kwargs) -> float:
    values = []
    for model in _MODELS:
        apps = symmetric_pair(model)
        result = BlessRuntime(**runtime_kwargs).serve(
            bind_load(apps, load, requests=requests)
        )
        values.append(mean_latency_ms(result))
    return float(np.mean(values))


def run(requests: int = 6, load: str = "B") -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}

    out["semi_sp_mode"] = {
        mode: _mean_over_pairs(
            requests, load, config=BlessConfig(semi_sp_mode=mode)
        )
        for mode in ("adaptive", "static")
    }
    out["solo_budget_us"] = {
        str(budget): _mean_over_pairs(
            requests, load, config=BlessConfig(solo_squad_budget_us=budget)
        )
        for budget in (250.0, 1_000.0, 4_000.0)
    }
    return out


def main(jobs=None) -> None:
    data = run()
    for knob, values in data.items():
        rows = [[setting, f"{latency:.2f}"] for setting, latency in values.items()]
        print(format_table([knob, "avg latency (ms)"], rows))
        print()


if __name__ == "__main__":
    main()
