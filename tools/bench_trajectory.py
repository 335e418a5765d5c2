#!/usr/bin/env python3
"""Run the benchmark suite and append a dated performance snapshot.

Executes ``pytest benchmarks/`` with ``pytest-benchmark``'s JSON output,
then distils each benchmark into a compact record — wall-time stats plus
any ``extra_info`` the benchmark attached (the perf benchmarks report
their measured speedup ratios there) — and appends the batch to
``BENCH_<date>.json`` in the output directory.  Appending (rather than
overwriting) builds a same-day trajectory: run it before and after a
change and diff the two entries.

Usage:
    python tools/bench_trajectory.py [--output-dir DIR] [-k EXPR]
    python tools/bench_trajectory.py --e2e [WORKLOAD ...] [--output-dir DIR]

``--e2e`` records the end-to-end benchmark instead (all five workloads
when none is named): it runs ``benchmarks/e2e/run.py --json`` once
untraced, for each workload's ``host_req_per_s``, and once
``--traced``, for each layer's ``self_share`` and ``us_per_call`` and
the layer counters ``BENCHMARK.json`` declares (engine events, µs per
event, memo hit rates, ...), and appends one ``e2e_<workload>`` record
per workload — the per-layer receipt a perf claim commits.

Each entry records the git revision it measured, and — unless
``REPRO_CATALOG=off`` — is also ingested into the sqlite results
catalog, so ``repro results compare`` and ``tools/perf_gate.py`` can
diff revisions without re-running anything.  The pytest subprocess runs
with ``PYTHONHASHSEED=0`` so hash-order effects never masquerade as
perf swings.

CI wires this into the bench-smoke and perf-gate jobs and uploads the
snapshot as an artifact, so every push leaves a queryable perf trail.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

E2E_DRIVER = REPO_ROOT / "benchmarks" / "e2e" / "run.py"
#: What an e2e record keeps of each layer in the traced split.
E2E_LAYER_FIELDS = ("self_share", "us_per_call")
#: The per-layer metric kinds every layer reports; the other per-layer
#: metrics of BENCHMARK.json are layer counters.
_LAYER_KINDS = ("self_share", "calls", "us_per_call")


def e2e_layer_counters() -> tuple:
    """The layer counters an e2e record keeps besides the layer fields:
    every ``per_layer`` metric of ``BENCHMARK.json`` that is not one of
    a layer's ``self_share``/``calls``/``us_per_call``, such as
    ``gpusim.engine.events`` and ``gpusim.engine.us_per_event``."""
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    return tuple(
        metric["name"]
        for metric in declared["per_layer"]
        if metric["name"].rpartition(".")[2] not in _LAYER_KINDS
    )


def bench_env() -> dict:
    """The caller's environment with hash randomization pinned.

    Benchmark comparisons across runs must not see dict/set
    iteration-order noise.  The src/ dir on PYTHONPATH keeps this
    runnable from a bare checkout (CI pip installs the package, but the
    gate must not require that).
    """
    path_parts = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return {
        **os.environ,
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": os.pathsep.join(p for p in path_parts if p),
    }


def run_benchmarks(select: str, pytest_args: list) -> dict:
    """Run the suite, return the parsed pytest-benchmark JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        raw_path = Path(tmp) / "benchmarks.json"
        cmd = [
            sys.executable,
            "-m",
            "pytest",
            "benchmarks/",
            "-q",
            "--benchmark-disable-gc",
            f"--benchmark-json={raw_path}",
        ]
        if select:
            cmd += ["-k", select]
        cmd += pytest_args
        proc = subprocess.run(cmd, cwd=REPO_ROOT, env=bench_env())
        if proc.returncode != 0:
            raise SystemExit(f"benchmark run failed (exit {proc.returncode})")
        return json.loads(raw_path.read_text())


def run_e2e(workloads: list) -> tuple:
    """``(untraced, traced)`` result JSONs of the end-to-end driver."""
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for flags in ([], ["--traced"]):
            out = Path(tmp) / "e2e.json"
            cmd = [sys.executable, str(E2E_DRIVER), *flags, "--json", str(out)]
            for workload in workloads:
                cmd += ["--workload", workload]
            proc = subprocess.run(cmd, cwd=REPO_ROOT, env=bench_env())
            if proc.returncode != 0:
                raise SystemExit(f"e2e run failed (exit {proc.returncode})")
            results.append(json.loads(out.read_text()))
    return tuple(results)


def entry_header(machine: str, python: str) -> dict:
    from repro.catalog import current_git_rev

    return {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "git_rev": current_git_rev(REPO_ROOT),
        "machine": machine,
        "python": python,
        "benchmarks": [],
    }


def distil_e2e(untraced: dict, traced: dict) -> dict:
    """One trajectory entry from the e2e driver's two result JSONs.

    Each workload becomes an ``e2e_<workload>`` record whose
    ``extra_info`` holds ``host_req_per_s`` (untraced), every layer's
    ``self_share`` and ``us_per_call`` and the layer counters (traced),
    the ``sim_digest`` and whether both runs checked ``correct``.
    """
    counters = set(e2e_layer_counters())
    entry = entry_header(platform.node(), platform.python_version())
    entry["e2e_seed"] = traced["seed"]
    for name, result in traced["workloads"].items():
        plain = untraced["workloads"][name]
        extra = {
            "correct": bool(result["correct"] and plain["correct"]),
            "sim_digest": result["sim_digest"],
        }
        # A workload whose reps failed reports no metrics at all.
        if "host_req_per_s" in plain["metrics"]:
            extra["host_req_per_s"] = plain["metrics"]["host_req_per_s"]["value"]
        for metric, cell in result["metrics"].items():
            if metric.rpartition(".")[2] in E2E_LAYER_FIELDS or metric in counters:
                extra[metric] = cell["value"]
        entry["benchmarks"].append(
            {"name": f"e2e_{name}", "wall_s": {}, "extra_info": extra}
        )
    return entry


def distil(raw: dict) -> dict:
    """Reduce pytest-benchmark output to one trajectory entry."""
    entry = entry_header(
        raw.get("machine_info", {}).get("node", ""),
        raw.get("machine_info", {}).get("python_version", ""),
    )
    for bench in raw.get("benchmarks", []):
        stats = bench.get("stats", {})
        entry["benchmarks"].append(
            {
                "name": bench.get("name", ""),
                "wall_s": {
                    "min": stats.get("min"),
                    "mean": stats.get("mean"),
                    "max": stats.get("max"),
                    "rounds": stats.get("rounds"),
                },
                # Speedup ratios etc. reported by the benchmark itself.
                "extra_info": bench.get("extra_info", {}),
            }
        )
    return entry


def append_snapshot(entry: dict, output_dir: Path) -> Path:
    """Append ``entry`` to today's ``BENCH_<date>.json`` trajectory."""
    output_dir.mkdir(parents=True, exist_ok=True)
    date = datetime.date.today().isoformat()
    path = output_dir / f"BENCH_{date}.json"
    history = []
    if path.exists():
        try:
            history = json.loads(path.read_text())
        except json.JSONDecodeError:
            history = []
        if not isinstance(history, list):
            history = [history]
    history.append(entry)
    path.write_text(json.dumps(history, indent=2) + "\n")
    return path


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output-dir",
        type=Path,
        default=REPO_ROOT,
        help="directory receiving BENCH_<date>.json (default: repo root)",
    )
    parser.add_argument(
        "-k",
        "--select",
        default="",
        help="pytest -k expression to run a subset of the benchmarks",
    )
    parser.add_argument(
        "--e2e",
        nargs="*",
        metavar="WORKLOAD",
        help="record the end-to-end benchmark's per-layer split instead "
        "(all workloads when none is named)",
    )
    parser.add_argument(
        "pytest_args",
        nargs="*",
        help="extra arguments forwarded to pytest verbatim",
    )
    args = parser.parse_args(argv)

    if args.e2e is not None:
        entry = distil_e2e(*run_e2e(args.e2e))
    else:
        entry = distil(run_benchmarks(args.select, args.pytest_args))
    path = append_snapshot(entry, args.output_dir)
    names = ", ".join(b["name"] for b in entry["benchmarks"]) or "none"
    print(f"appended {len(entry['benchmarks'])} benchmark(s) [{names}] to {path}")

    # Mirror the snapshot into the results catalog (REPRO_CATALOG=off
    # opts out) so perf trajectories are queryable next to experiments.
    try:
        from repro.catalog import catalog_enabled, ingest_bench_entry

        if catalog_enabled():
            count = ingest_bench_entry(entry, source=str(path))
            from repro.catalog.ingest import resolve_catalog_path

            print(f"ingested {count} benchmark run(s) into "
                  f"{resolve_catalog_path()} @ {entry['git_rev'][:12]}")
    except Exception as exc:  # catalog trouble must not fail the bench run
        print(f"warning: catalog ingest skipped: {exc}", file=sys.stderr)


if __name__ == "__main__":
    main()
