"""End-to-end host-time benchmark of the BLESS reproduction.

Runs each workload (``workloads.py``) as a series of reps, each in a
fresh process so the process-global rate memo and the profiler caches
start cold, as they do for a user.  Prints every metric by name with
its unit, checks the simulated outputs, writes a result JSON, and ends
with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Untraced (``--trace 0``, the default) reps run at ``jobs=2`` and give
the end-to-end metrics as medians over reps.  ``--trace 1`` (or
``--traced``) instead runs one untraced ``jobs=2`` rep, then pairs of
untraced and traced ``jobs=1`` in-process reps, and reports the
per-layer split.  Reps repeat until ``--seconds`` would be exceeded,
and at least ``--reps`` times.

    python benchmarks/e2e/run.py --workload bless_closed --seconds 20
    python benchmarks/e2e/run.py --traced --json traced.json

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import stats  # noqa: E402
from workloads import JOBS, REP_TIMEOUT_FACTOR, WORKLOADS, Workload, resolved_requests  # noqa: E402

#: Scratch space for rep catalogs and outputs (gitignored).
TMP = ROOT / ".e2e-bench"
#: The tail percentile is fixed from this many reps' cells, so it does
#: not drift with how many reps fit in ``--seconds``.
TAIL_REPS = 3

#: The bounded end-to-end metrics (BENCHMARK.json), on the last line.
END_TO_END = {
    "host_req_per_s": "req/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Printed and written to the result JSON, but not bounded: on a shared
#: box they move with its load far more than the bounded ones (README.md).
CELL_WALL = {
    "cell_wall_p50_ms": "ms",
    "cell_wall_tail_ms": "ms",
}

LAYERS = tuple(spans.LAYERS)
PER_LAYER = {
    **{
        f"{layer}.{kind}": unit
        for layer in LAYERS
        for kind, unit in (("self_share", "fraction"), ("calls", "count"),
                           ("us_per_call", "us"))
    },
    "gpusim.engine.events": "count",
    "gpusim.engine.us_per_event": "us",
    "gpusim.engine.kernels_per_epoch": "kernels",
    "gpusim.engine.rebalance_cache_hit_rate": "fraction",
    "core.squad.kernels_per_squad": "kernels",
    "core.configurator.config_cache_hit_rate": "fraction",
    "core.kernel_manager.preempted_kernels": "count",
    "gateway.shed_frac": "fraction",
    "parallel.pool_efficiency": "fraction",
    "catalog.rows": "count",
    "trace.coverage": "fraction",
    "trace.overhead": "fraction",
}


# ----------------------------------------------------------------------
# Reps
# ----------------------------------------------------------------------
def child_env(tmp: Path) -> Dict[str, str]:
    """The caller's environment without REPRO_* knobs, plus the rep's own."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REPRO_CATALOG"] = str(tmp / "catalog.sqlite")
    # sqlite and any other temp-file users stay inside the rep's directory.
    env["TMPDIR"] = str(tmp)
    # A fixed revision label keeps ingest from shelling out to git, so
    # a checkout and a bare copy of the tree do the same work.
    env["REPRO_GIT_REV"] = "e2e-bench"
    return env


def _wait_group_gone(pgid: int, limit_s: float = 5.0) -> None:
    deadline = time.monotonic() + limit_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def wait_rep(proc: subprocess.Popen, timeout_s: float) -> Tuple[int, float, bool]:
    """Reap ``proc`` via wait4: (exit code, peak RSS MB of its tree, timed out).

    ``ru_maxrss`` from wait4 covers the child and every descendant it
    reaped (pool workers, CLI processes).  On timeout, or if this
    process is interrupted, the rep's whole process group is killed.
    """
    deadline = time.monotonic() + timeout_s
    pid = 0
    try:
        while not pid and time.monotonic() <= deadline:
            time.sleep(0.01)
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
    finally:
        if not pid:
            os.killpg(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        _wait_group_gone(proc.pid)
    return proc.returncode, usage.ru_maxrss / 1024.0, not pid


def run_rep(workload: Workload, seed: int, mode: str, index: int) -> dict:
    """One fresh-process rep; ``units`` is None when it timed out or died."""
    tmp = TMP / f"rep-{os.getpid()}-{index}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    slowdown = 1 if mode == "pool" else JOBS
    timeout_s = REP_TIMEOUT_FACTOR * (workload.expected_s * slowdown + 1.0)
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), workload.name, str(seed), mode, str(tmp)],
        cwd=ROOT,
        env=child_env(tmp),
        stdout=subprocess.DEVNULL,
        start_new_session=True,
    )
    code, rss_mb, timed_out = wait_rep(proc, timeout_s)
    rep = {"mode": mode, "timed_out": timed_out, "exit_code": code, "rss_mb": rss_mb,
           "units": None, "wall_s": time.perf_counter() - spawned}
    out = tmp / "rep.json"
    if code == 0 and out.is_file():
        data = json.loads(out.read_text(encoding="utf-8"))
        rep.update(data)
        rep["timed_s"] = data["timed_end"] - data["timed_start"]
        if data["setup_s"] is None:
            rep["setup_s"] = data["timed_start"] - spawned
    shutil.rmtree(tmp, ignore_errors=True)
    return rep


def run_reps(workload: Workload, seed: int, modes: List[str], min_rounds: int,
             seconds: float) -> List[dict]:
    """Repeat the round ``modes`` until ``seconds`` would be exceeded.

    At least ``min_rounds`` rounds run; another starts only if a round
    as long as the slowest so far still fits in ``seconds``.
    """
    started = time.perf_counter()
    reps: List[dict] = []
    rounds = 0
    slowest = 0.0
    while True:
        elapsed = time.perf_counter() - started
        if rounds >= min_rounds and elapsed + slowest > seconds:
            return reps
        round_start = time.perf_counter()
        for mode in modes:
            reps.append(run_rep(workload, seed, mode, len(reps)))
        rounds += 1
        slowest = max(slowest, time.perf_counter() - round_start)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def rep_requests_per_s(rep: dict) -> float:
    resolved = sum(resolved_requests(u["metrics"]) for u in rep["units"] if u["metrics"])
    return resolved / rep["timed_s"]


def cell_wall_stats(reps: List[dict]) -> Tuple[float, float, float, int]:
    """(p50 ms, tail ms, tail percentile, cells) over the pooled cell walls."""
    walls_ms = [w * 1000.0 for rep in reps for w in rep["cell_walls_s"]]
    per_rep = min(len(rep["cell_walls_s"]) for rep in reps)
    percentile = stats.tail_percentile(per_rep * min(len(reps), TAIL_REPS))
    if percentile is None:
        raise ValueError(f"too few cells for a tail ({per_rep} per rep)")
    return (statistics.median(walls_ms), stats.nearest_rank(walls_ms, percentile),
            percentile, len(walls_ms))


def end_to_end(good: List[dict]) -> Tuple[Dict[str, dict], Dict[str, str]]:
    p50, tail, percentile, cells = cell_wall_stats(good)
    per_rep = {
        "host_req_per_s": [rep_requests_per_s(rep) for rep in good],
        "cell_wall_p50_ms": [
            statistics.median(w * 1000.0 for w in rep["cell_walls_s"]) for rep in good
        ],
        "cell_wall_tail_ms": [
            stats.nearest_rank([w * 1000.0 for w in rep["cell_walls_s"]], percentile)
            for rep in good
        ],
        "setup_s": [rep["setup_s"] for rep in good],
        "peak_rss_mb": [rep["rss_mb"] for rep in good],
    }
    values = {name: statistics.median(vals) for name, vals in per_rep.items()}
    values["cell_wall_p50_ms"], values["cell_wall_tail_ms"] = p50, tail
    notes = {
        "host_req_per_s": f"median of {len(good)} reps",
        "cell_wall_p50_ms": f"{cells} cells",
        "cell_wall_tail_ms": f"p{percentile:.1f} of {cells} cells",
        "setup_s": f"median of {len(good)} reps",
        "peak_rss_mb": f"median of {len(good)} reps",
    }
    metrics = {
        name: {"value": values[name], "unit": unit, "reps": per_rep[name]}
        for name, unit in {**END_TO_END, **CELL_WALL}.items()
    }
    return metrics, notes


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _sum(units: List[dict], key: str) -> float:
    return sum(u["metrics"].get(key, 0.0) for u in units if u["metrics"])


def _sum_prefix(units: List[dict], prefix: str) -> float:
    return sum(
        v for u in units if u["metrics"] for k, v in u["metrics"].items()
        if k.startswith(prefix)
    )


def per_layer(pool: dict, serial: List[dict], traced: List[dict]) -> Dict[str, dict]:
    rows = []
    for rep in traced:
        totals = stats.layer_totals([tuple(span) for span in rep["spans"]], rep["layer_of"])
        rows.append((rep["timed_s"], {layer: totals.get(layer, (0.0, 0)) for layer in LAYERS}))

    def median_of(fn) -> float:
        return statistics.median(fn(wall, layers) for wall, layers in rows)

    values: Dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.self_share"] = median_of(lambda wall, t: t[layer][0] / wall)
        values[f"{layer}.calls"] = median_of(lambda wall, t: float(t[layer][1]))
        values[f"{layer}.us_per_call"] = median_of(
            lambda wall, t: _ratio(t[layer][0] * 1e6, t[layer][1]))
    units = traced[0]["units"]
    events = _sum(units, "engine_events_processed")
    values["gpusim.engine.events"] = events
    values["gpusim.engine.us_per_event"] = median_of(
        lambda wall, t: _ratio(t["gpusim.engine"][0] * 1e6, events))
    values["gpusim.engine.kernels_per_epoch"] = _ratio(
        _sum(units, "engine_epoch_kernels_advanced"), _sum(units, "engine_epoch_batches"))
    values["gpusim.engine.rebalance_cache_hit_rate"] = _ratio(
        _sum(units, "engine_rebalance_cache_hits"), _sum(units, "engine_rebalances"))
    values["core.squad.kernels_per_squad"] = _ratio(
        traced[0]["squad_kernels"], traced[0]["squads"])
    hits = _sum(units, "config_cache_hits")
    values["core.configurator.config_cache_hit_rate"] = _ratio(
        hits, hits + _sum(units, "config_cache_misses"))
    values["core.kernel_manager.preempted_kernels"] = _sum(units, "slo_preempted_kernels")
    values["gateway.shed_frac"] = _ratio(
        _sum_prefix(units, "slo_shed_admission_"), _sum_prefix(units, "slo_arrived_"))
    values["parallel.pool_efficiency"] = stats.pool_efficiency(
        pool["cell_walls_s"], JOBS, pool["timed_s"])
    values["catalog.rows"] = float(pool["catalog_rows"])
    values["trace.coverage"] = median_of(
        lambda wall, t: sum(seconds for seconds, _ in t.values()) / wall)
    values["trace.overhead"] = (
        statistics.median(r["timed_s"] for r in traced)
        / statistics.median(r["timed_s"] for r in serial) - 1.0
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def measure(workload: Workload, seed: int, traced: bool, min_reps: int,
            seconds: float) -> dict:
    if traced:
        reps = [run_rep(workload, seed, "pool", 0)]
        reps += run_reps(workload, seed, ["serial", "traced"], 1,
                         max(0.0, seconds - reps[0]["wall_s"]))
    else:
        reps = run_reps(workload, seed, ["pool"], min_reps, seconds)
    attempted, failed = stats.count_failures(
        [rep["units"] for rep in reps], workload.units_per_rep)
    good = [rep for rep in reps if rep["units"] is not None]
    digests = sorted({rep["sim_digest"] for rep in good})
    out = {
        "reps": len(reps),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "timeouts": sum(1 for rep in reps if rep["timed_out"]),
        "sim": good[0]["sim"] if good else {},
        "sim_digest": digests[0] if len(digests) == 1 else digests,
        # Same seed, same inputs: every rep, at any jobs and traced or
        # not, must simulate byte-identical results.
        "correct": failed == 0 and len(digests) == 1 and len(good) == len(reps),
        "metrics": {},
        "notes": {},
    }
    if len(good) != len(reps):
        return out
    if traced:
        out["metrics"] = per_layer(
            reps[0],
            [rep for rep in reps if rep["mode"] == "serial"],
            [rep for rep in reps if rep["mode"] == "traced"],
        )
    else:
        out["metrics"], out["notes"] = end_to_end(good)
    return out


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--reps", type=int, default=3,
                        help="minimum untraced reps per workload (default 3)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep repeating reps for about this long (default 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer split instead")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--json", type=Path, help="result JSON path "
                        "(default: .e2e-bench/results/<workloads>.seed<N>.trace<T>.json)")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit so a running rep's group is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    # Byte-compile once up front so no rep's set-up pays for it.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    table = PER_LAYER if args.trace else END_TO_END

    results = {}
    for name in names:
        workload = WORKLOADS[name]
        result = measure(workload, args.seed, bool(args.trace), args.reps, args.seconds)
        results[name] = result
        print(f"== {name}  seed={args.seed}  reps={result['reps']}  "
              f"{'traced' if args.trace else 'untraced'}")
        for metric, entry in result["metrics"].items():
            note = result["notes"].get(metric)
            print(f"  {metric:<42} {entry['value']:>14.6g} {entry['unit']:<9}"
                  + (f" ({note})" if note else ""))
        print(f"  {'failed_frac':<42} {result['failed_frac']:>14.6g} fraction  "
              f"({result['failed']}/{result['attempted']} units, "
              f"{result['timeouts']} rep timeouts)")
        for metric, value in result["sim"].items():
            print(f"  {metric:<42} {value:>14.6g}")
        print(f"  {'sim_digest':<42} {result['sim_digest']}")
        if not result["correct"]:
            print("  OUTPUT CHECK FAILED", file=sys.stderr)

    summary = {
        "seed": args.seed,
        "trace": args.trace,
        "workloads": results,
        "correct": all(r["correct"] for r in results.values()),
        "claim": None,
    }
    path = args.json or (
        TMP / "results" / f"{'+'.join(names)}.seed{args.seed}.trace{args.trace}.json"
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"result JSON: {path}")

    metrics = {}
    for name, result in results.items():
        for metric, unit in table.items():
            if metric in result["metrics"]:
                key = metric if len(results) == 1 else f"{name}.{metric}"
                metrics[key] = {"value": result["metrics"][metric]["value"], "unit": unit}
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
