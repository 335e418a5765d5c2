"""SLO attainment under a serving gateway (serving extension, not in the paper).

The paper's evaluation replays workloads to completion and reports
latency distributions; real serving systems are judged by **SLO
attainment** — the fraction of latency-critical requests finishing
within their deadline (Hummingbird, Tally; see PAPERS.md).  This
experiment attaches the :mod:`repro.gateway` serving gateway to the
comparison matrix and measures two things:

1. ``attainment`` sweep — the Fig.-13 four-app mix with alternating
   latency-critical / best-effort classes, served at increasing offered
   load (offered load = solo-latency pace over think time) under
   BLESS / ISO / UNBOUND (MPS) / MIG.  BLESS's bubbleless sharing keeps
   latency-critical attainment strictly above the baselines once the
   GPU saturates (load >= 0.7).
2. ``preemption`` ablation — one latency-critical client arriving over
   a saturating best-effort backlog, BLESS with squad-boundary
   preemption on vs off.  Under the **default** config squads are short
   (solo budget ~1 ms), so the arriving request waits at most one near
   boundary and preemption barely moves the needle — the §3.3 story
   that short squads *are* the preemption mechanism.  The ablation
   therefore also serves a long-squad configuration (20 ms solo
   budget), where withdrawing the pending best-effort tail at the next
   rate-change epoch is worth several milliseconds of latency-critical
   latency and a large attainment gap appears.

Everything is seeded; two runs are byte-identical (the CI ``slo-smoke``
leg replays ``run_quick`` against the golden file).
"""

from __future__ import annotations

import dataclasses
from functools import partial
from typing import Dict, List, Optional

from ..apps.models import inference_app
from ..catalog.ingest import ingest_metrics_safe
from ..core.config import DEFAULT_CONFIG
from ..gateway.slo import (
    BEST_EFFORT,
    LATENCY_CRITICAL,
    SLOPolicy,
    SLOSpec,
    check_slo_accounting,
    slo_rates,
)
from ..metrics.stats import ServingResult
from ..parallel import ServeCell, run_cells
from ..workloads.arrivals import ClosedLoop
from ..workloads.suite import (
    WorkloadBinding,
    bind_closed_loop,
    estimated_solo_us,
    multi_app_mix,
)
from .common import INFERENCE_SYSTEMS, format_table

_SWEEP_SYSTEMS = ("ISO", "UNBOUND", "MIG", "BLESS")
#: Offered load = solo-latency pace / think time (1.0 = each client
#: re-arrives exactly one solo latency after completion).
_LOADS = (0.5, 0.7, 1.0)
_DEADLINE_FACTOR = 2.0
_SEED = 0  # bind_closed_loop's default seeding, kept explicit

#: Long-squad config for the preemption ablation: squad boundaries
#: every ~20 ms instead of ~1 ms, so the cost of *not* preempting is
#: visible (cf. Hummingbird's motivation).
_LONG_SQUAD = dict(
    max_kernels_per_squad=400,
    solo_squad_fraction=1.0,
    solo_squad_budget_us=20_000.0,
)


def sweep_spec(app_ids: List[str], preempt: bool = True) -> SLOSpec:
    """Alternate latency-critical / best-effort over the app mix."""
    policies = {
        app_id: SLOPolicy(
            slo_class=LATENCY_CRITICAL if index % 2 == 0 else BEST_EFFORT,
            deadline_factor=_DEADLINE_FACTOR,
        )
        for index, app_id in enumerate(app_ids)
    }
    return SLOSpec(policies=policies, preempt=preempt)


def ablation_bindings(
    load: float = 0.7, lc_requests: int = 12, be_requests: int = 30
) -> List[WorkloadBinding]:
    """One latency-critical client over a saturating best-effort stream."""
    lc_app = inference_app("R50").with_quota(0.5, app_id="R50-lc")
    be_app = inference_app("BERT").with_quota(0.5, app_id="BERT-be")
    interval = estimated_solo_us(lc_app) / load
    return [
        WorkloadBinding(
            app=lc_app,
            process_factory=partial(
                ClosedLoop, interval_us=interval, max_requests=lc_requests
            ),
        ),
        WorkloadBinding(
            app=be_app,
            process_factory=partial(
                ClosedLoop, interval_us=0.0, max_requests=be_requests
            ),
        ),
    ]


def ablation_spec(preempt: bool) -> SLOSpec:
    return SLOSpec(
        policies={
            "R50-lc": SLOPolicy(
                slo_class=LATENCY_CRITICAL, deadline_factor=1.5
            ),
            "BERT-be": SLOPolicy(slo_class=BEST_EFFORT),
        },
        preempt=preempt,
    )


def _cell_stats(result: ServingResult) -> Dict[str, float]:
    extras = result.extras
    rates = slo_rates(extras)
    return {
        "slo_attainment": rates.get("slo_attainment", 0.0),
        "deadline_miss_rate": rates.get("deadline_miss_rate", 0.0),
        "lc_arrived": extras.get("slo_arrived_latency_critical", 0.0),
        "lc_hits": extras.get("slo_deadline_hits_latency_critical", 0.0),
        "preemptions": extras.get("slo_preemptions", 0.0),
        "preempted_kernels": extras.get("slo_preempted_kernels", 0.0),
        "p99_ms": result.percentile_latency(99) / 1000.0,
    }


def run(
    requests: int = 10,
    lc_requests: int = 12,
    be_requests: int = 30,
    jobs: Optional[int] = None,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    apps = multi_app_mix(4)
    app_ids = [app.app_id for app in apps]

    cells = []
    # 1. attainment-vs-load sweep over the comparison matrix.
    for load in _LOADS:
        for name in _SWEEP_SYSTEMS:
            cells.append(
                ServeCell(
                    key=("sweep", load, name),
                    system=name,
                    system_factory=INFERENCE_SYSTEMS[name],
                    bindings_factory=partial(
                        bind_closed_loop, apps, 1.0 / load, requests
                    ),
                    system_kwargs={"slo": sweep_spec(app_ids)},
                )
            )
    # 2. preemption ablation: default vs long-squad config, on vs off.
    for squads, config in (
        ("short", None),
        ("long", dataclasses.replace(DEFAULT_CONFIG, **_LONG_SQUAD)),
    ):
        for preempt in (True, False):
            kwargs: Dict[str, object] = {"slo": ablation_spec(preempt)}
            if config is not None:
                kwargs["config"] = config
            cells.append(
                ServeCell(
                    key=("ablation", squads, preempt),
                    system="BLESS",
                    system_factory=INFERENCE_SYSTEMS["BLESS"],
                    bindings_factory=partial(
                        ablation_bindings, 0.7, lc_requests, be_requests
                    ),
                    system_kwargs=kwargs,
                )
            )

    results = run_cells(cells, jobs=jobs)

    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for cell, result in zip(cells, results):
        # Per-class conservation must hold for every cell (satellite
        # invariant: a request is completed, gate-shed, or fault-shed —
        # never lost, never counted twice).
        check_slo_accounting(result.extras)
        stats = _cell_stats(result)
        if cell.key[0] == "sweep":
            _, load, name = cell.key
            scenario = f"load={load:g}"
            ingest_config = {
                "experiment": "slo_attainment",
                "scenario": "sweep",
                "load": load,
                "requests": requests,
                "deadline_factor": _DEADLINE_FACTOR,
            }
            label = name
        else:
            _, squads, preempt = cell.key
            scenario = f"ablation/{squads}-squads"
            label = "BLESS" if preempt else "BLESS-nopreempt"
            ingest_config = {
                "experiment": "slo_attainment",
                "scenario": "ablation",
                "squads": squads,
                "preempt": bool(preempt),
                "lc_requests": lc_requests,
                "be_requests": be_requests,
            }
        out.setdefault(scenario, {})[label] = stats
        ingest_metrics_safe(
            "slo_attainment",
            label,
            ingest_config,
            stats,
            seed=_SEED,
            jobs=jobs,
        )
    return out


def run_quick(jobs: Optional[int] = None):
    """CI-sized sweep (the slo-smoke golden pins this output).

    The full grid is already CI-sized (~5 s serial), and the smallest
    request counts that keep the load>=0.7 separation strict are the
    defaults — so quick == full here.
    """
    return run(jobs=jobs)


def main(jobs: Optional[int] = None) -> None:
    data = run(jobs=jobs)
    for scenario, systems in data.items():
        rows = [
            [
                name,
                f"{stats['slo_attainment']:.2f}",
                f"{stats['deadline_miss_rate']:.2f}",
                f"{stats['lc_hits']:.0f}/{stats['lc_arrived']:.0f}",
                f"{stats['preemptions']:.0f}",
                f"{stats['p99_ms']:.2f}",
            ]
            for name, stats in systems.items()
        ]
        print(
            format_table(
                ["system", "attainment", "miss rate", "lc hits",
                 "preemptions", "p99 ms"],
                rows,
                title=f"{scenario} (deadline = {_DEADLINE_FACTOR}x solo, "
                f"seed={_SEED})",
            )
        )
        print()


if __name__ == "__main__":
    main()
