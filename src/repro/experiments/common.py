"""Shared helpers for the per-figure experiment harnesses.

Every experiment module exposes ``run(...) -> dict`` returning the
structured data the paper's figure/table plots, plus a ``main()`` that
prints it as rows.  Benchmarks under ``benchmarks/`` call ``run`` with
small request counts; the examples and EXPERIMENTS.md use the defaults.

Parallel execution
------------------
The paper's evaluation is a grid of *independent* simulations —
(system, workload binding) cells — so the harness fans cells out over a
``ProcessPoolExecutor`` (`run_cells`).  Determinism is preserved by
construction: every cell is self-contained (its bindings factory builds
a freshly seeded workload inside the worker) and results are merged in
the submission order, so ``jobs=N`` output is byte-identical to
``jobs=1``.  ``jobs=None`` honours the ``REPRO_JOBS`` environment
variable and defaults to serial; ``jobs=0`` means "all cores".
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..baselines import (
    GSLICESystem,
    ISOSystem,
    MIGSystem,
    REEFPlusSystem,
    SharingSystem,
    TemporalSystem,
    UnboundSystem,
    ZicoSystem,
)
from ..core import BlessRuntime
from ..metrics.stats import ServingResult
from ..parallel import ServeCell, _caller_experiment, run_cells
from ..workloads.suite import WorkloadBinding

# The comparison matrix of §6.1 for inference workloads.
INFERENCE_SYSTEMS: Dict[str, Callable[[], SharingSystem]] = {
    "ISO": ISOSystem,
    "TEMPORAL": TemporalSystem,
    "MIG": MIGSystem,
    "GSLICE": GSLICESystem,
    "UNBOUND": UnboundSystem,
    "REEF+": REEFPlusSystem,
    "BLESS": BlessRuntime,
}

# GSLICE and REEF+ are inference-only (§6.3); ZICO replaces them.
TRAINING_SYSTEMS: Dict[str, Callable[[], SharingSystem]] = {
    "ISO": ISOSystem,
    "TEMPORAL": TemporalSystem,
    "MIG": MIGSystem,
    "UNBOUND": UnboundSystem,
    "ZICO": ZicoSystem,
    "BLESS": BlessRuntime,
}


def serve_all(
    bindings_factory: Callable[[], Sequence[WorkloadBinding]],
    systems: Optional[Dict[str, Callable[[], SharingSystem]]] = None,
    jobs: Optional[int] = None,
    experiment: Optional[str] = None,
) -> Dict[str, ServingResult]:
    """Serve the same (freshly bound) workload on every system.

    ``experiment`` labels the grid's rows in the results catalog; by
    default the calling experiment module's name is used, so every
    per-figure runner is queryable by name without code changes.
    """
    chosen = systems or INFERENCE_SYSTEMS
    cells = [
        ServeCell(
            key=name,
            system=name,
            system_factory=factory,
            bindings_factory=bindings_factory,
        )
        for name, factory in chosen.items()
    ]
    results = run_cells(
        cells, jobs=jobs, experiment=experiment or _caller_experiment(2)
    )
    return {cell.system: result for cell, result in zip(cells, results)}


def mean_latency_ms(result: ServingResult) -> float:
    return result.mean_of_app_means() / 1000.0


def format_table(
    header: List[str], rows: List[List[str]], title: str = ""
) -> str:
    """Plain fixed-width table used by every experiment's main().

    Ragged input is handled defensively: a row with more cells than the
    header gets extra (blank-headed) columns, and short rows are padded
    with empty cells — renderers over heterogeneous dicts (scenario
    ``show``, ad-hoc catalog queries) must never crash the report.
    """
    columns = max([len(header)] + [len(row) for row in rows], default=0)
    header = list(header) + [""] * (columns - len(header))
    rows = [list(row) + [""] * (columns - len(row)) for row in rows]
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
