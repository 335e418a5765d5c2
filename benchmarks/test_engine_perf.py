"""End-to-end engine speedup against a base revision, plus harness
equivalence.

Replays a fig13-style workload (the five symmetric model pairs at load
A, all seven systems) with this tree's engine and with a base
revision's:

* the base is ``git merge-base HEAD origin/main``, or ``HEAD~1`` when
  that is HEAD itself (a run on main) or ``origin/main`` is unknown;
* it is checked out with ``git worktree add --detach`` into a temporary
  directory, removed again afterwards;
* every leg is a fresh subprocess with ``PYTHONPATH`` pointing at its
  tree's ``src``, which times one serial ``run_inference`` pass after a
  one-request warm-up.

Shared CI boxes show 30%+ wall-clock swings between back-to-back runs,
so the two trees are timed in interleaved pairs — both legs of a pair
see the same machine weather — and ``extra_info["base_speedup"]`` is
the median of the per-pair base/head ratios.  The asserted floor is
0.8, a regression tripwire that survives that noise.  The bench also
asserts identical figure output (every latency float) between this
tree's serial and ``jobs=2`` runs.  It skips only outside a git work
tree.
"""

import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from repro.experiments.fig13_overall import run_inference

REPO_ROOT = Path(__file__).resolve().parent.parent
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


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=REPO_ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def base_revision():
    head = git("rev-parse", "HEAD")
    try:
        base = git("merge-base", "HEAD", "origin/main")
    except subprocess.CalledProcessError:
        base = head
    return git("rev-parse", "HEAD~1") if base == head else base


def time_leg(tree):
    """Seconds of one serial fig13-style pass with ``tree``'s engine."""
    env = {
        **os.environ,
        "PYTHONPATH": str(tree / "src"),
        "PYTHONHASHSEED": "0",
        "REPRO_CATALOG": "off",
    }
    module, seconds = subprocess.run(
        [sys.executable, "-c", LEG], cwd=tree, env=env, check=True,
        capture_output=True, text=True,
    ).stdout.split()[-2:]
    assert Path(module).resolve().is_relative_to((tree / "src").resolve()), module
    return float(seconds)


def test_engine_speedup_and_equivalence(benchmark):
    try:
        git("rev-parse", "--is-inside-work-tree")
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("the base revision needs a git work tree")
    base_rev = base_revision()

    with tempfile.TemporaryDirectory() as tmp:
        base_tree = Path(tmp) / "base"
        git("worktree", "add", "--detach", str(base_tree), base_rev)
        try:
            base_times = []
            head_times = []
            for _ in range(TRIALS):
                base_times.append(time_leg(base_tree))
                head_times.append(time_leg(REPO_ROOT))
        finally:
            git("worktree", "remove", "--force", str(base_tree))
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
