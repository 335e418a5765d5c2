"""End-to-end engine + harness speedup benchmark (ISSUEs 2 and 7).

Replays a fig13-style workload (the five symmetric model pairs at load
A, all seven systems) through the engine builds:

* ``legacy``      — the PR-1 baseline: per-event full-queue dispatch
                    scan, unconditional rebalance, one launch event per
                    kernel, serial harness;
* ``scalar``      — incremental ready-set + rebalance skipping, scalar
                    rate arithmetic (the equivalence reference);
* ``vectorized``  — membership-memoized rates, a miss computed by the
                    scalar rate kernel;
* ``batched``     — the default: rate-change epochs with out-of-heap
                    completion/gap pseudo-events, fused advance+sweep
                    ticks, and a process-wide L2 rate memo for running
                    sets of one or two kernels, keyed on their rate rows;
* ``jit``         — ``batched`` plus the numba rebalance kernel when
                    numba is installed (silently interpreted when not).

Asserts the ISSUE-2 acceptance floor (>= 3x end-to-end speedup of the
optimized configuration over the PR-1 baseline) plus the ISSUE-7
contracts: the epoch-batched engine must not regress against the
frozen ``vectorized`` reference (measured median on this workload is
~1.1-1.25x in its favour; the asserted floor is 0.8 because the pair
ratio still swings +-20% on shared boxes), and *identical* figure
output (every latency float) across all five modes and across serial
vs parallel execution.

Measurement: shared CI boxes show 30%+ wall-clock swings between
back-to-back runs, so compared builds are timed in interleaved pairs —
both legs of a pair see the same machine weather — and the asserted
speedups are medians of the per-pair ratios.
"""

import os
import statistics
import time

from repro.experiments.fig13_overall import run_inference

REQUESTS = 4
LOADS = ("A",)
TRIALS = 5

#: Floor for the batched-vs-vectorized interleaved median.  The honest
#: measured value on this workload is ~1.1-1.25x (the epoch engine
#: wins); 0.8 is the regression tripwire that survives CI noise.
EPOCH_FLOOR = 0.8


def run_build(mode, jobs):
    """Time one full run_inference pass under an engine mode + job count."""
    os.environ["REPRO_ENGINE_MODE"] = mode
    try:
        started = time.perf_counter()
        data = run_inference(requests=REQUESTS, loads=LOADS, jobs=jobs)
        return data, time.perf_counter() - started
    finally:
        os.environ.pop("REPRO_ENGINE_MODE", None)


def test_engine_speedup_and_equivalence(benchmark):
    # Warm imports/numpy/process-pool machinery outside the timed regions.
    run_inference(requests=1, loads=("A",), jobs=2)

    scalar_data, scalar_seconds = run_build("scalar", jobs=1)
    jit_data, jit_seconds = run_build("jit", jobs=1)

    # Interleaved baseline/optimized pairs; per-pair speedup ratios.
    # The optimized leg is the default engine (batched) under jobs=2.
    legacy_data = None
    batched_parallel_data = None
    legacy_times = []
    optimized_times = []
    ratios = []
    for _ in range(TRIALS):
        legacy_data, legacy_seconds = run_build("legacy", jobs=1)
        batched_parallel_data, optimized_seconds = run_build("batched", jobs=2)
        legacy_times.append(legacy_seconds)
        optimized_times.append(optimized_seconds)
        ratios.append(legacy_seconds / optimized_seconds)
    speedup = statistics.median(ratios)

    # Epoch-engine pairs: the frozen PR-6 reference vs the batched
    # engine, both serial, so the ratio isolates engine machinery.
    vec_data = None
    batched_data = None
    vec_times = []
    batched_times = []
    epoch_ratios = []
    for _ in range(TRIALS):
        vec_data, vec_seconds = run_build("vectorized", jobs=1)
        batched_data, batched_seconds = run_build("batched", jobs=1)
        vec_times.append(vec_seconds)
        batched_times.append(batched_seconds)
        epoch_ratios.append(vec_seconds / batched_seconds)
    epoch_speedup = statistics.median(epoch_ratios)

    benchmark.extra_info["legacy_s"] = round(min(legacy_times), 2)
    benchmark.extra_info["scalar_s"] = round(scalar_seconds, 2)
    benchmark.extra_info["jit_s"] = round(jit_seconds, 2)
    benchmark.extra_info["vectorized_s"] = round(min(vec_times), 2)
    benchmark.extra_info["batched_s"] = round(min(batched_times), 2)
    benchmark.extra_info["batched_jobs2_s"] = round(min(optimized_times), 2)
    benchmark.extra_info["pair_speedups"] = [round(r, 2) for r in ratios]
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["epoch_pair_speedups"] = [
        round(r, 2) for r in epoch_ratios
    ]
    benchmark.extra_info["epoch_speedup"] = round(epoch_speedup, 2)

    benchmark.pedantic(run_build, args=("batched", 2), rounds=1, iterations=1)

    # ISSUE-2 acceptance: >= 3x end to end over the PR-1 baseline.
    assert speedup >= 3.0, (
        f"only {speedup:.2f}x (median of {[f'{r:.2f}' for r in ratios]}) "
        f"over the legacy engine"
    )

    # ISSUE-7 tripwire: the epoch-batched default must not regress
    # against the frozen vectorized reference.
    assert epoch_speedup >= EPOCH_FLOOR, (
        f"batched engine at {epoch_speedup:.2f}x of vectorized (median of "
        f"{[f'{r:.2f}' for r in epoch_ratios]}) — below the {EPOCH_FLOOR}x "
        f"regression floor"
    )

    # Byte-identical figure output across every mode: run_inference
    # returns raw floats, so plain equality is bit-for-bit.
    assert scalar_data == legacy_data, "scalar diverged from legacy"
    assert vec_data == legacy_data, "vectorized diverged from legacy"
    assert batched_data == legacy_data, "batched diverged from legacy"
    assert jit_data == legacy_data, "jit diverged from legacy"
    assert batched_parallel_data == legacy_data, (
        "parallel diverged from serial"
    )
