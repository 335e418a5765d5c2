"""Cluster scale-out benchmark (§4.2.2 online orchestrator, ISSUEs 5+7).

Runs the CI-sized ``cluster_scale`` sweep once under pytest-benchmark
timing, records the headline scenario numbers in ``extra_info``, and
asserts the orchestrator's qualitative shape: every scenario keeps the
cluster-wide request books balanced, and scaling the pool from one GPU
to two spreads the same per-GPU workload without inflating latency.

Also measures the ISSUE-7 in-process serve loop: small squads (below
``INPROC_GPU_THRESHOLD`` GPUs to serve per epoch) skip the process
pool's submit+pickle tax entirely.  The forced-pool and inproc sweeps
are timed in interleaved pairs and must return identical data.  The
online controller reuses an unchanged GPU's earlier pass, but no epoch
of this sweep has one (the epoch-1 migration changes GPU 0's tenants),
so the pool leg still sends its two-GPU epoch through the pool; a
one-GPU grid runs in-process under either backend.
"""

import os
import statistics
import time

from repro.experiments.cluster_scale import run_quick
from conftest import run_once

BACKEND_TRIALS = 3


def _run_backend(backend):
    os.environ["REPRO_BACKEND"] = backend
    try:
        started = time.perf_counter()
        data = run_quick(jobs=2)
        return data, time.perf_counter() - started
    finally:
        os.environ.pop("REPRO_BACKEND", None)


def test_cluster_scale(benchmark):
    data = run_once(benchmark, run_quick, jobs=2)

    assert len(data) == 2
    for scenario, stats in data.items():
        assert stats["completed"] + stats["shed"] == stats["offered"], scenario
        assert 0.0 < stats["util"] <= 1.0, scenario

    one = data["gpus=1 policy=best_fit load=C"]
    two = data["gpus=2 policy=best_fit load=C"]
    # Two tenant groups on two GPUs serve 3x the requests (group 0
    # serves both epochs) at roughly single-GPU latency: GPUs do not
    # interfere, so scale-out must not inflate the mean.
    assert two["completed"] == 3 * one["completed"]
    assert two["mean_ms"] < 1.25 * one["mean_ms"]

    benchmark.extra_info["single_gpu_mean_ms"] = round(one["mean_ms"], 3)
    benchmark.extra_info["dual_gpu_mean_ms"] = round(two["mean_ms"], 3)
    benchmark.extra_info["dual_gpu_util"] = round(two["util"], 4)
    benchmark.extra_info["migrations"] = two["migrations"]

    # ISSUE-7: the in-process backend must match the pool byte for byte
    # and not regress against it on this squad size (every epoch here
    # occupies 1-2 GPUs, under the inproc threshold).  Measured: ~1.7x
    # over a cold pool (the first grid in a process pays the fork),
    # ~1.05-1.1x over a warm cached pool (submit+pickle round-trips
    # per epoch); pairs swing +-20% on shared boxes, so the asserted
    # floor is a loose regression tripwire, not the headline.
    ratios = []
    for _ in range(BACKEND_TRIALS):
        pool_data, pool_seconds = _run_backend("pool")
        inproc_data, inproc_seconds = _run_backend("inproc")
        assert pool_data == data, "pool backend diverged"
        assert inproc_data == data, "inproc backend diverged"
        ratios.append(pool_seconds / inproc_seconds)
    inproc_speedup = statistics.median(ratios)
    benchmark.extra_info["inproc_pair_speedups"] = [round(r, 2) for r in ratios]
    benchmark.extra_info["inproc_speedup"] = round(inproc_speedup, 2)
    assert inproc_speedup >= 0.7, (
        f"inproc backend at {inproc_speedup:.2f}x of the warm pool (median "
        f"of {[f'{r:.2f}' for r in ratios]}) — below the 0.7x regression "
        f"floor"
    )
