"""Cluster scale-out sweep (§4.2.2 multi-GPU extension, not in the paper).

The paper sketches the multi-GPU story — replicate the BLESS runtime
per GPU behind a central placement controller — but evaluates a single
GPU.  This sweep exercises the online orchestrator across cluster
sizes, placement policies, and load levels: ``gpus`` tenant groups
(each the Fig. 15 four-model mix) arrive one group per epoch, the
controller places/degrades/sheds them, and every occupied GPU with a
tenant list new in the run serves in parallel across the process pool
(``jobs=`` / ``REPRO_JOBS``); an unchanged GPU reuses its earlier pass.

Reported per scenario:

* ``mean_ms`` / ``util`` — merged latency and time-weighted cluster
  utilization (idle GPUs count in the denominator);
* ``completed`` / ``offered`` — completed requests vs offered load
  including requests of shed applications, so
  ``completed + shed == offered`` holds cluster-wide;
* ``shed_apps`` / ``migrations`` — admission-ladder outcomes.

Everything is seeded and placement is deterministic, so two runs — at
any ``jobs`` — are byte-identical (the cluster-smoke golden pins
``run_quick``; the contention golden pins ``run_churn_quick``).

The **churn sweep** (``run_churn``) is the contention-aware policy's
showcase: a heterogeneous tenant mix with *uniform* quotas (so the
quota-fit policies cannot tell apps apart) arrives one by one, part of
it departs after the first epoch and a replacement wave arrives.  The
arrival order is adversarial to both quota baselines — best-fit pairs
consecutive arrivals and worst-fit pairs arrival ``i`` with ``i + n`` —
so each co-locates the NAS tenant with an R101, while the
interference-cost objective pairs it with the lightest tenant and
balances predicted work across every GPU.  The mix replicates per
8-GPU block, scaling the same shape to 64 GPUs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..apps.models import inference_app
from ..catalog.ingest import ingest_metrics_safe
from ..cluster import AppArrival, OnlineClusterController, PlacementPolicy
from ..workloads.suite import QUOTAS_4MODEL, bind_continuous, bind_load
from .common import format_table

GPUS = (1, 2, 4)
POLICIES = ("best_fit", "worst_fit")
LOADS = ("A", "C")
_GROUP_MODELS = ("VGG", "R50", "R101", "BERT")

CHURN_GPUS = (8, 16, 32, 64)
CHURN_POLICIES = ("best_fit", "worst_fit", "contention_aware")
#: One 8-GPU block of the churn mix: eight "anchor" tenants arrive
#: first (one lands per empty GPU under every policy), then eight
#: "partners".  Work spans ~3.8x (NAS 33ms … R50 8.8ms) while every
#: quota is 0.5, so placement quality is decided purely by *which*
#: apps share a GPU — the signal only the contention policy sees.
_CHURN_ANCHORS = ("NAS", "R101", "R101", "BERT", "BERT", "VGG", "VGG", "R50")
_CHURN_PARTNERS = ("R101", "BERT", "BERT", "VGG", "VGG", "R50", "R50", "R50")
#: Epoch-1 churn per block: partners at these indices depart and the
#: wave-B models arrive in their place.
_CHURN_DEPARTS = (0, 5, 7)
_CHURN_WAVE_B = ("R101", "BERT", "R50")
_CHURN_QUOTA = 0.5


def cluster_apps(groups: int):
    """``groups`` copies of the Fig. 15 four-model mix, unique app_ids."""
    apps = []
    for group in range(groups):
        for index, (model, quota) in enumerate(zip(_GROUP_MODELS, QUOTAS_4MODEL)):
            base = inference_app(model)
            apps.append(
                base.with_quota(quota, app_id=f"{base.name}#g{group}.{index}")
            )
    return apps


def run(
    gpus: Sequence[int] = GPUS,
    policies: Sequence[str] = POLICIES,
    loads: Sequence[str] = LOADS,
    requests: int = 6,
    jobs: Optional[int] = None,
) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for num_gpus in gpus:
        for policy in policies:
            for load in loads:
                bindings = bind_load(
                    cluster_apps(num_gpus), load, requests=requests
                )
                # One tenant group arrives per epoch: group g's four
                # apps show up at epoch g and stay to the end.
                schedule = [
                    AppArrival(binding=binding, arrive_epoch=index // 4)
                    for index, binding in enumerate(bindings)
                ]
                controller = OnlineClusterController(
                    num_gpus=num_gpus,
                    policy=PlacementPolicy(policy),
                    migrate=True,
                )
                result = controller.serve(schedule, jobs=jobs)
                extras = result.merged.extras
                completed = float(len(result.merged.records))
                arrived = extras.get("fault_requests_arrived", completed)
                shed = extras.get("fault_shed_requests", 0.0)
                turned_away = extras.get("cluster_requests_shed", 0.0)
                scenario = f"gpus={num_gpus} policy={policy} load={load}"
                out[scenario] = {
                    "mean_ms": result.merged.mean_of_app_means() / 1000.0,
                    "util": result.merged.utilization,
                    "completed": completed,
                    "offered": arrived + turned_away,
                    "shed": shed + turned_away,
                    "shed_apps": float(result.stats.apps_shed),
                    "degraded_apps": float(result.stats.apps_degraded),
                    "migrations": float(result.stats.migrations),
                    "makespan_ms": result.merged.makespan_us / 1000.0,
                }
                # Scenario-level catalog row: this is the granularity
                # cross-PR sweeps are compared at (one row per grid
                # point, config-hashed on the axes).  The gate metrics
                # (throughput_qps, p99_latency_us) ride only in the
                # catalog — the returned dict is golden-pinned.
                ingest_metrics_safe(
                    "cluster_scale",
                    result.merged.system,
                    {
                        "experiment": "cluster_scale",
                        "gpus": num_gpus,
                        "policy": policy,
                        "load": load,
                        "requests": requests,
                    },
                    {
                        **out[scenario],
                        "throughput_qps": result.merged.throughput_qps(),
                        "p99_latency_us": result.merged.percentile_latency(99),
                    },
                    jobs=jobs,
                )
    return out


def run_quick(jobs: Optional[int] = None) -> Dict[str, Dict[str, float]]:
    """CI-sized sweep (the cluster-smoke golden pins this output)."""
    return run(
        gpus=(1, 2), policies=("best_fit",), loads=("C",), requests=4, jobs=jobs
    )


def _churn_app(model: str, tag: str):
    base = inference_app(model)
    return base.with_quota(_CHURN_QUOTA, app_id=f"{base.name}#{tag}")


def churn_schedule(num_gpus: int, requests: int = 2) -> List[AppArrival]:
    """The churny online schedule for ``num_gpus`` (a multiple of 8).

    Per 8-GPU block: the block's anchors arrive first, then its
    partners (all at epoch 0); at epoch 1 the ``_CHURN_DEPARTS``
    partners leave and the wave-B tenants arrive.  Anchors across all
    blocks precede all partners so every policy seats one anchor per
    empty GPU before any pairing decision happens.
    """
    if num_gpus % 8 != 0:
        raise ValueError(f"churn sweep needs a multiple of 8 GPUs, got {num_gpus}")
    blocks = num_gpus // 8
    apps = []
    departs: Dict[str, int] = {}
    arrives: Dict[str, int] = {}
    for block in range(blocks):
        for index, model in enumerate(_CHURN_ANCHORS):
            apps.append(_churn_app(model, f"g{block}.a{index}"))
    for block in range(blocks):
        for index, model in enumerate(_CHURN_PARTNERS):
            app = _churn_app(model, f"g{block}.p{index}")
            if index in _CHURN_DEPARTS:
                departs[app.app_id] = 1
            apps.append(app)
    for block in range(blocks):
        for index, model in enumerate(_CHURN_WAVE_B):
            app = _churn_app(model, f"g{block}.b{index}")
            arrives[app.app_id] = 1
            apps.append(app)
    bindings = bind_continuous(apps, requests=requests)
    return [
        AppArrival(
            binding=binding,
            arrive_epoch=arrives.get(binding.app.app_id, 0),
            depart_epoch=departs.get(binding.app.app_id),
        )
        for binding in bindings
    ]


def run_churn(
    gpus: Sequence[int] = CHURN_GPUS,
    policies: Sequence[str] = CHURN_POLICIES,
    requests: int = 2,
    jobs: Optional[int] = None,
) -> Dict[str, Dict[str, float]]:
    """Churny-arrival policy comparison (the contention showcase).

    Reports merged cluster throughput, tail latency, and — for the
    contention-aware policy — the mean per-epoch placement cost, per
    ``gpus x policies`` grid point.  The contention golden pins the
    quick slice; the acceptance claim is that ``contention_aware``
    strictly beats both quota policies on throughput *and* p99 at
    every cluster size.
    """
    out: Dict[str, Dict[str, float]] = {}
    for num_gpus in gpus:
        for policy in policies:
            controller = OnlineClusterController(
                num_gpus=num_gpus,
                policy=PlacementPolicy(policy),
                migrate=True,
            )
            result = controller.serve(
                churn_schedule(num_gpus, requests=requests), jobs=jobs
            )
            extras = result.merged.extras
            scenario = f"gpus={num_gpus} policy={policy} churn"
            stats = {
                "mean_ms": result.merged.mean_of_app_means() / 1000.0,
                "throughput_qps": result.merged.throughput_qps(),
                "p99_latency_us": result.merged.percentile_latency(99),
                "makespan_ms": result.merged.makespan_us / 1000.0,
                "util": result.merged.utilization,
                "completed": float(len(result.merged.records)),
                "shed_apps": float(result.stats.apps_shed),
                "migrations": float(result.stats.migrations),
            }
            cost = extras.get("cluster_placement_cost")
            if cost is not None:
                stats["placement_cost"] = float(cost)
            out[scenario] = stats
            ingest_metrics_safe(
                "cluster_churn",
                result.merged.system,
                {
                    "experiment": "cluster_churn",
                    "gpus": num_gpus,
                    "policy": policy,
                    "requests": requests,
                },
                stats,
                jobs=jobs,
            )
    return out


def run_churn_quick(jobs: Optional[int] = None) -> Dict[str, Dict[str, float]]:
    """CI-sized churn slice (the contention golden pins this output)."""
    return run_churn(gpus=(8,), requests=2, jobs=jobs)


def main(jobs: Optional[int] = None) -> None:
    data = run(jobs=jobs)
    rows = [
        [
            scenario,
            f"{stats['mean_ms']:.2f}",
            f"{stats['util']:.1%}",
            f"{stats['completed']:.0f}/{stats['offered']:.0f}",
            f"{stats['shed']:.0f}",
            f"{stats['degraded_apps']:.0f}",
            f"{stats['migrations']:.0f}",
        ]
        for scenario, stats in data.items()
    ]
    print(
        format_table(
            ["scenario", "mean ms", "util", "done/offered", "shed", "degraded", "migrations"],
            rows,
            title="cluster scale-out (one tenant group arrives per epoch)",
        )
    )
    churn = run_churn(jobs=jobs)
    churn_rows = [
        [
            scenario,
            f"{stats['throughput_qps']:.1f}",
            f"{stats['p99_latency_us'] / 1000.0:.1f}",
            f"{stats['mean_ms']:.2f}",
            f"{stats['migrations']:.0f}",
            (
                f"{stats['placement_cost'] / 1000.0:.0f}"
                if "placement_cost" in stats
                else "-"
            ),
        ]
        for scenario, stats in churn.items()
    ]
    print(
        format_table(
            ["scenario", "tput qps", "p99 ms", "mean ms", "migrations", "cost (ms)"],
            churn_rows,
            title="churny arrivals: quota-fit vs contention-aware placement",
        )
    )


if __name__ == "__main__":
    main()
