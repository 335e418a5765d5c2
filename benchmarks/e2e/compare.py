"""Compare two sets of end-to-end benchmark results.

    python benchmarks/e2e/compare.py BASE CHANGE

BASE and CHANGE are each a result JSON written by ``run.py --json`` or
a directory of them (for example ten runs at different seeds).  For
every workload and metric the tool prints each side's median and
quartiles, the change's delta, the metric's bound from BENCHMARK.json
and a verdict:

* ``better``    -- the change beats the base by more than the base's own
  spread (inter-quartile distance over median);
* ``worse``     -- the change is worse by more than the bound (for
  metrics without one, per-layer and cell walls: by more than the spread);
* ``unresolved`` -- the spread is wider than the bound, unless every
  value of the change beats every value of the base;
* ``unchanged`` -- otherwise.

With several results of a workload on a side each contributes its
reported value; with one, its per-rep values are used.  Simulated numbers
(``sim_*``) and ``sim_digest`` must match exactly and are flagged when
they do not.  Exits 1 when a bounded metric is worse or a simulated
output differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

BENCHMARK_JSON = HERE.parents[1] / "BENCHMARK.json"


Runs = Dict[str, List[Tuple[int, dict]]]  # workload -> [(seed, its result)]


def load_side(path: Path) -> Runs:
    """Every workload result of one side, from one file or a directory of them."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"no result JSON in {path}")
    runs: Runs = {}
    for f in files:
        result = json.loads(f.read_text(encoding="utf-8"))
        for name, workload in result["workloads"].items():
            runs.setdefault(name, []).append((result["seed"], workload))
    return runs


def metric_values(runs: List[Tuple[int, dict]], metric: str) -> List[float]:
    entries = [r["metrics"][metric] for _, r in runs if metric in r["metrics"]]
    if len(entries) == 1 and entries[0].get("reps"):
        return list(entries[0]["reps"])
    return [entry["value"] for entry in entries]


def verdict(base: List[float], change: List[float], better: str,
            bound: Optional[float]) -> Tuple[str, float]:
    """(verdict, signed relative delta of the change's median)."""
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    if base_median == 0:
        delta = 0.0 if change_median == 0 else float("inf")
    else:
        delta = (change_median - base_median) / abs(base_median)
    gain = delta if better == "higher" else -delta
    base_spread = stats.relative_spread(base)
    spread = max(base_spread, stats.relative_spread(change))
    if better == "higher":
        separated = min(change) > max(base)
    else:
        separated = max(change) < min(base)
    if bound is not None and spread > bound:
        return ("better" if separated else "unresolved"), delta
    if gain > base_spread and gain > 0:
        return "better", delta
    if -gain > (bound if bound is not None else spread):
        return "worse", delta
    return "unchanged", delta


def _fmt(values: List[float]) -> str:
    q1, median, q3 = stats.quartiles(values)
    return f"{median:.5g} [{q1:.4g}, {q3:.4g}]"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    rules: Dict[str, Tuple[str, Optional[float]]] = {
        m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]
    }
    rules.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    base, change = load_side(args.base), load_side(args.change)

    failing = False
    print(f"{'workload':<17} {'metric':<42} {'base median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} {'delta':>8} {'bound':>6}  verdict")
    for workload in [w for w in base if w in change]:
        # Metrics outside BENCHMARK.json (the cell walls) are unbounded times.
        for metric in dict.fromkeys(m for _, r in base[workload] for m in r["metrics"]):
            better, bound = rules.get(metric, ("lower", None))
            a = metric_values(base[workload], metric)
            b = metric_values(change[workload], metric)
            if not a or not b:
                continue
            outcome, delta = verdict(a, b, better, bound)
            failing |= outcome == "worse" and bound is not None
            bound_text = f"{bound:.0%}" if bound is not None else "-"
            print(f"{workload:<17} {metric:<42} {_fmt(a):<30} {_fmt(b):<30} "
                  f"{delta:>+8.1%} {bound_text:>6}  {outcome}")
        # Simulated outputs must agree exactly between results of one seed.
        seeds = {s for s, _ in base[workload]} & {s for s, _ in change[workload]}
        for seed in sorted(seeds):
            for key in ("sim", "sim_digest"):
                seen = [
                    {json.dumps(r[key], sort_keys=True) for s, r in side[workload] if s == seed}
                    for side in (base, change)
                ]
                if seen[0] != seen[1]:
                    failing = True
                    print(f"{workload:<17} seed {seed} {key} DIFFERS: "
                          f"{sorted(seen[0])} vs {sorted(seen[1])}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
