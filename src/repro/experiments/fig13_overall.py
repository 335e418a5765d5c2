"""Fig. 13: overall performance with symmetric workloads (even quotas).

For each of the five symmetric model pairs and loads A/B/C, serve the
workload on every system and report average latencies; then aggregate
BLESS's mean reduction vs each baseline (the paper's 37.3% / 34.2% /
21.1% / 16.5% / 13.5% numbers vs TEMPORAL/MIG/GSLICE/UNBOUND/REEF+).
Also reproduces the training comparison (two training apps sharing the
GPU evenly) and the saturation check (continuous arrivals -> BLESS
within a few % of GSLICE).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional

import numpy as np

from ..apps.models import MODEL_NAMES
from ..parallel import ServeCell, run_cells
from ..workloads.suite import (
    bind_continuous,
    bind_load,
    symmetric_pair,
    training_pair,
)
from .common import (
    INFERENCE_SYSTEMS,
    TRAINING_SYSTEMS,
    format_table,
    mean_latency_ms,
    serve_all,
)


def run_inference(
    requests: int = 10, loads=("A", "B", "C"), jobs: Optional[int] = None
) -> Dict[str, object]:
    # The whole (model, load, system) grid as independent cells so that
    # --jobs parallelism spans every simulation, not one row at a time.
    cells: List[ServeCell] = []
    for model in MODEL_NAMES:
        for load in loads:
            apps = symmetric_pair(model)
            bindings = partial(bind_load, apps, load, requests=requests)
            for name, factory in INFERENCE_SYSTEMS.items():
                cells.append(
                    ServeCell(
                        key=(model, load),
                        system=name,
                        system_factory=factory,
                        bindings_factory=bindings,
                    )
                )
    grouped: Dict[object, Dict[str, float]] = {}
    for cell, result in zip(cells, run_cells(cells, jobs=jobs)):
        grouped.setdefault(cell.key, {})[cell.system] = mean_latency_ms(result)

    rows: List[Dict[str, object]] = [
        {"model": model, "load": load, **grouped[(model, load)]}
        for model in MODEL_NAMES
        for load in loads
    ]
    # Aggregate reductions.
    reductions = {}
    bless = np.array([row["BLESS"] for row in rows])
    for name in INFERENCE_SYSTEMS:
        if name == "BLESS":
            continue
        other = np.array([row[name] for row in rows])
        reductions[name] = float(1.0 - np.mean(bless / other))
    return {"rows": rows, "reductions": reductions}


def run_training(
    requests: int = 3,
    pairs=(("R50", "VGG"), ("R101", "R50")),
    jobs: Optional[int] = None,
) -> Dict[str, object]:
    rows = []
    for model_a, model_b in pairs:
        apps = training_pair(model_a, model_b)
        results = serve_all(
            partial(bind_load, apps, "C", requests=requests),
            systems=TRAINING_SYSTEMS,
            jobs=jobs,
        )
        rows.append(
            {
                "pair": f"{model_a}+{model_b}",
                **{name: mean_latency_ms(r) for name, r in results.items()},
            }
        )
    return {"rows": rows}


def run_saturation(
    model: str = "R50", requests: int = 10, jobs: Optional[int] = None
) -> Dict[str, float]:
    """Continuous arrivals: no bubbles exist; BLESS ~ GSLICE (§6.3)."""
    apps = symmetric_pair(model)
    results = serve_all(
        partial(bind_continuous, apps, requests=requests),
        systems={"GSLICE": INFERENCE_SYSTEMS["GSLICE"], "BLESS": INFERENCE_SYSTEMS["BLESS"]},
        jobs=jobs,
    )
    gslice = mean_latency_ms(results["GSLICE"])
    bless = mean_latency_ms(results["BLESS"])
    return {"GSLICE": gslice, "BLESS": bless, "overhead": bless / gslice - 1.0}


def main(jobs: Optional[int] = None) -> None:
    inference = run_inference(jobs=jobs)
    names = list(INFERENCE_SYSTEMS)
    rows = [
        [r["model"], r["load"]] + [f"{r[n]:.2f}" for n in names]
        for r in inference["rows"]
    ]
    print(format_table(["model", "load"] + names, rows, "Fig. 13 inference (ms)"))
    print("\nBLESS mean latency reduction vs:")
    for name, value in inference["reductions"].items():
        print(f"  {name:9s} {value:6.1%}")

    training = run_training()
    tnames = list(TRAINING_SYSTEMS)
    rows = [[r["pair"]] + [f"{r[n]:.2f}" for n in tnames] for r in training["rows"]]
    print()
    print(format_table(["pair"] + tnames, rows, "training (ms/iteration)"))

    sat = run_saturation()
    print(
        f"\nsaturated: BLESS {sat['BLESS']:.2f}ms vs GSLICE {sat['GSLICE']:.2f}ms "
        f"({sat['overhead']:+.1%}; paper: < +3%)"
    )


if __name__ == "__main__":
    main()
