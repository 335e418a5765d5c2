"""Contention-aware placement benchmark.

Times the churny cluster sweep that showcases the interference-cost
policy, asserts its acceptance shape — ``contention_aware`` strictly
beats both quota-fit policies on throughput *and* p99 at 8 GPUs — and
times a 256-app ``place_all`` on 64 GPUs, where every feasibility probe
runs ``check_admission`` on per-app kernel-duration stats computed once
per app (:func:`repro.core.deployment.compute_duration_stats`).
"""

import time

from repro.apps.models import inference_app
from repro.cluster import ClusterPlacer, PlacementPolicy
from repro.experiments.cluster_scale import run_churn_quick
from conftest import run_once

ADMISSION_GPUS = 64
ADMISSION_MODELS = ("VGG", "R50", "R101", "BERT")


def test_placement_contention(benchmark):
    data = run_once(benchmark, run_churn_quick, jobs=2)

    assert len(data) == 3
    contention = data["gpus=8 policy=contention_aware churn"]
    for baseline in ("best_fit", "worst_fit"):
        other = data[f"gpus=8 policy={baseline} churn"]
        assert contention["throughput_qps"] > other["throughput_qps"], baseline
        assert contention["p99_latency_us"] < other["p99_latency_us"], baseline

    best = data["gpus=8 policy=best_fit churn"]
    benchmark.extra_info["contention_tput_qps"] = round(
        contention["throughput_qps"], 1
    )
    benchmark.extra_info["best_fit_tput_qps"] = round(best["throughput_qps"], 1)
    benchmark.extra_info["tput_win"] = round(
        contention["throughput_qps"] / best["throughput_qps"], 3
    )
    benchmark.extra_info["p99_win"] = round(
        best["p99_latency_us"] / contention["p99_latency_us"], 3
    )
    benchmark.extra_info["placement_cost_us"] = round(
        contention["placement_cost"], 1
    )


def test_placement_admission_cached_stats(benchmark):
    """A 256-app, 64-GPU ``place_all`` on the cached-stats admission path."""

    def place_cluster():
        placer = ClusterPlacer(
            num_gpus=ADMISSION_GPUS, policy=PlacementPolicy.BEST_FIT
        )
        apps = []
        for index in range(ADMISSION_GPUS * 4):
            base = inference_app(ADMISSION_MODELS[index % len(ADMISSION_MODELS)])
            apps.append(base.with_quota(0.25, app_id=f"{base.name}#{index}"))
        placer.place_all(apps)
        return placer

    started = time.perf_counter()
    placer = run_once(benchmark, place_cluster)
    elapsed = time.perf_counter() - started

    placed = sum(len(slot.apps) for slot in placer.slots)
    assert placed == ADMISSION_GPUS * 4
    benchmark.extra_info["gpus"] = ADMISSION_GPUS
    benchmark.extra_info["apps_placed"] = placed
    benchmark.extra_info["place_all_seconds"] = round(elapsed, 3)
    # Cached per-app stats keep 256-app placement interactive;
    # recomputing them on every probe took tens of seconds.
    assert elapsed < 10.0
