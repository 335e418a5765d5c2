"""End-to-end engine speedup against a base revision, plus harness
equivalence.

Replays a fig13-style workload (the five symmetric model pairs at load
A, all seven systems) with this tree's engine and with the base
revision's (the ``base_tree`` fixture in ``conftest.py``).  Every leg
is a fresh subprocess (``run_leg``) that times one serial
``run_inference`` pass after a one-request warm-up.

Shared CI boxes show 30%+ wall-clock swings between back-to-back runs,
so the two trees are timed in interleaved pairs — both legs of a pair
see the same machine weather — and ``extra_info["base_speedup"]`` is
the median of the per-pair base/head ratios.  The asserted floor is
0.8, a regression tripwire that survives that noise.  The bench also
asserts identical figure output (every latency float) between this
tree's serial and ``jobs=2`` runs.
"""

import statistics
import time

from conftest import REPO_ROOT, run_leg

from repro.experiments.fig13_overall import run_inference

REQUESTS = 4
LOADS = ("A",)
TRIALS = 5

#: Floor for the base/head interleaved median: a change that makes the
#: engine markedly slower than its base fails even on a noisy box.
BASE_FLOOR = 0.8

LEG = f"""
import time
import repro
from repro.experiments.fig13_overall import run_inference
run_inference(requests=1, loads={LOADS!r}, jobs=1)
started = time.perf_counter()
run_inference(requests={REQUESTS}, loads={LOADS!r}, jobs=1)
print(repro.__file__, time.perf_counter() - started)
"""


def test_engine_speedup_and_equivalence(benchmark, base_tree):
    base_rev, tree = base_tree
    base_times = []
    head_times = []
    for _ in range(TRIALS):
        base_times.append(float(run_leg(tree, LEG)[0]))
        head_times.append(float(run_leg(REPO_ROOT, LEG)[0]))
    ratios = [base / head for base, head in zip(base_times, head_times)]
    base_speedup = statistics.median(ratios)

    started = time.perf_counter()
    serial_data = run_inference(requests=REQUESTS, loads=LOADS, jobs=1)
    serial_seconds = time.perf_counter() - started
    parallel_data = benchmark.pedantic(
        run_inference,
        kwargs={"requests": REQUESTS, "loads": LOADS, "jobs": 2},
        rounds=1,
        iterations=1,
    )

    benchmark.extra_info["base_rev"] = base_rev[:12]
    benchmark.extra_info["base_s"] = round(min(base_times), 2)
    benchmark.extra_info["head_s"] = round(min(head_times), 2)
    benchmark.extra_info["base_pair_speedups"] = [round(r, 2) for r in ratios]
    benchmark.extra_info["base_speedup"] = round(base_speedup, 2)
    benchmark.extra_info["serial_s"] = round(serial_seconds, 2)

    assert base_speedup >= BASE_FLOOR, (
        f"engine at {base_speedup:.2f}x of base {base_rev[:12]} (median of "
        f"{[f'{r:.2f}' for r in ratios]}) — below the {BASE_FLOOR}x floor"
    )
    # run_inference returns raw floats, so plain equality is bit-for-bit.
    assert parallel_data == serial_data, "parallel diverged from serial"
