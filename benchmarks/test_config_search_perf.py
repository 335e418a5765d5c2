"""Configuration-search speed against a base revision, plus the gain of
the decision cache.

Replays a repeated-squad serving mix (K=4 requests, N=18 partitions —
680 compositions per decision; 12 distinct squads replayed 20x each,
240 decisions) through a fresh ``ExecutionConfigDeterminer``, so every
replay pays the 12 cold searches and serves the rest from the
squad-signature LRU.  The process-wide decision table behind the LRU is
emptied before each replay, so no replay starts warm (a revision
without that table skips the step).  A timing is the best of
``REPLAYS`` such replays.

* ``base_speedup`` — the replay's time with the base revision's package
  (the ``base_tree`` fixture in ``conftest.py``) over its time with this
  tree's, each leg a fresh subprocess; the median of ``TRIALS``
  interleaved pairs, so both legs of a pair see the same machine
  weather.  Floor 0.8, a regression tripwire that survives shared-box
  noise.  Both revisions must print the same digest of every decision.
* ``cache_speedup`` — in this tree, the same stream through the
  uncached search (``_determine_uncached``) over the memoized replay,
  median of interleaved pairs.  Floor 3.  The LRU must also serve more
  than 90% of the lookups, and both paths must decide identically.

The legs use only the determiner API both revisions share:
``ExecutionConfigDeterminer(config).determine``.
"""

import hashlib
import math
import random
import statistics
import time
from pathlib import Path

from conftest import REPO_ROOT, run_leg

from repro.apps.application import Request
from repro.apps.models import inference_app
from repro.core import configurator
from repro.core.config import BlessConfig
from repro.core.configurator import ExecutionConfigDeterminer
from repro.core.profiler import OfflineProfiler
from repro.core.squad import KernelSquad, SquadEntry

K_REQUESTS = 4
N_PARTITIONS = 18
DISTINCT_SQUADS = 12
WORKLOAD_LENGTH = 240
TRIALS = 5
REPLAYS = 5
BASE_FLOOR = 0.8
CACHE_FLOOR = 3.0

LEG = f"""
import sys
sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
import repro
from test_config_search_perf import build_workload, digest, replay
seconds, decisions, _ = replay(*build_workload())
print(repro.__file__, seconds, digest(decisions))
"""


def build_workload():
    """A repeated-squad stream: 12 distinct squads replayed 20x each."""
    config = BlessConfig(num_partitions=N_PARTITIONS)
    profiler = OfflineProfiler(config=config)
    models = ["VGG", "R50", "R101", "BERT"]
    apps = [
        inference_app(m).with_quota(1.0 / K_REQUESTS, app_id=m.lower())
        for m in models
    ]
    profiles = {a.app_id: profiler.profile(a) for a in apps}

    rng = random.Random(1234)
    distinct = []
    for _ in range(DISTINCT_SQUADS):
        squad = KernelSquad()
        for app in apps:
            count = rng.randrange(3, 9)
            start = rng.randrange(0, len(app.kernels) - count)
            squad.entries[app.app_id] = SquadEntry(
                request=Request(app=app, arrival_time=0.0),
                kernel_indices=list(range(start, start + count)),
            )
        distinct.append(squad)
    squads = [distinct[i % DISTINCT_SQUADS] for i in range(WORKLOAD_LENGTH)]
    return config, profiles, squads


def replay(config, profiles, squads, cached=True):
    """``(best seconds, decisions, determiner)`` over ``REPLAYS`` passes
    of the stream, each through a fresh determiner."""
    best = math.inf
    for _ in range(REPLAYS):
        decisions_table = getattr(configurator, "_DECISIONS", None)
        if decisions_table is not None:
            decisions_table.clear()
        determiner = ExecutionConfigDeterminer(config)
        decide = determiner.determine if cached else determiner._determine_uncached
        started = time.perf_counter()
        decisions = [decide(squad, profiles) for squad in squads]
        best = min(best, time.perf_counter() - started)
    return best, decisions, determiner


def digest(decisions):
    """SHA-256 of every decision's partitions, rears and prediction."""

    def items(mapping):
        return None if mapping is None else sorted(mapping.items())

    text = repr(
        [
            (items(d.partitions), items(d.rear_counts), d.predicted_duration_us)
            for d in decisions
        ]
    )
    return hashlib.sha256(text.encode()).hexdigest()


def test_config_search_speedup_and_equivalence(benchmark, base_tree):
    base_rev, tree = base_tree
    base_times, head_times, base_digests, head_digests = [], [], set(), set()
    for _ in range(TRIALS):
        seconds, base_digest = run_leg(tree, LEG)
        base_times.append(float(seconds))
        base_digests.add(base_digest)
        seconds, head_digest = run_leg(REPO_ROOT, LEG)
        head_times.append(float(seconds))
        head_digests.add(head_digest)
    base_ratios = [base / head for base, head in zip(base_times, head_times)]
    base_speedup = statistics.median(base_ratios)

    workload = build_workload()
    uncached_times, memo_times, cache_ratios = [], [], []
    for _ in range(TRIALS):
        uncached_s, uncached, _ = replay(*workload, cached=False)
        memo_s, memoized, determiner = replay(*workload)
        uncached_times.append(uncached_s)
        memo_times.append(memo_s)
        cache_ratios.append(uncached_s / memo_s)
    cache_speedup = statistics.median(cache_ratios)
    hit_rate = determiner.cache.stats.hit_rate

    # Steady state (cache warm) for the pytest-benchmark wall numbers.
    config, profiles, squads = workload
    benchmark.pedantic(
        lambda: [determiner.determine(squad, profiles) for squad in squads],
        rounds=3,
        iterations=1,
    )

    benchmark.extra_info["base_rev"] = base_rev[:12]
    benchmark.extra_info["base_ms"] = round(min(base_times) * 1e3, 2)
    benchmark.extra_info["head_ms"] = round(min(head_times) * 1e3, 2)
    benchmark.extra_info["base_pair_speedups"] = [round(r, 2) for r in base_ratios]
    benchmark.extra_info["base_speedup"] = round(base_speedup, 2)
    benchmark.extra_info["uncached_ms"] = round(min(uncached_times) * 1e3, 2)
    benchmark.extra_info["memoized_ms"] = round(min(memo_times) * 1e3, 2)
    benchmark.extra_info["cache_pair_speedups"] = [round(r, 1) for r in cache_ratios]
    benchmark.extra_info["cache_speedup"] = round(cache_speedup, 1)
    benchmark.extra_info["hit_rate"] = round(hit_rate, 3)
    benchmark.extra_info["per_decision_us"] = round(
        min(memo_times) / len(squads) * 1e6, 2
    )

    assert len(head_digests) == 1, "this tree's replay is not deterministic"
    assert base_digests == head_digests, (
        f"decisions differ from base {base_rev[:12]}"
    )
    assert digest(memoized) == digest(uncached) == head_digest
    assert base_speedup >= BASE_FLOOR, (
        f"search at {base_speedup:.2f}x of base {base_rev[:12]} (median of "
        f"{[f'{r:.2f}' for r in base_ratios]}) — below the {BASE_FLOOR}x floor"
    )
    assert cache_speedup >= CACHE_FLOOR, (
        f"the cache gains only {cache_speedup:.1f}x over the uncached search"
    )
    # The workload repeats 12 signatures: the cache must absorb the rest.
    assert hit_rate > 0.9
