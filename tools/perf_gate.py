#!/usr/bin/env python3
"""CI perf-regression gate over the sqlite results catalog.

Intended call sequence (the ``perf-gate`` job in
``.github/workflows/ci.yml``):

1. restore the baseline catalog from the main-branch cache (or seed it
   from the committed ``BENCH_*.json`` snapshots via ``--ingest-bench``);
2. run the bench suite through ``tools/bench_trajectory.py`` so the
   candidate revision's runs land in the same catalog;
3. run this gate: it resolves the baseline revision (``--baseline-rev``,
   default: the newest catalog revision that is *not* the candidate),
   compares metric **medians** — the interleaved-median discipline, not
   single runs — and exits non-zero past the thresholds.

Thresholds are signed fractions whose sign encodes the bad direction
(see ``repro results compare --help``); defaults: throughput −5%,
p99 latency +10%, the config-search ``cache_speedup`` ratio −25%.
Wall-clock seconds are deliberately *not* gated by default — the
committed baseline may come from different hardware; the ratio is
measured uncached-vs-memoized on one box and survives the machine
change.

A missing baseline (first run on a fresh cache) passes with a warning
unless ``--require-baseline`` is set.

Usage:
    python tools/perf_gate.py [--db PATH] [--ingest-bench GLOB ...]
        [--baseline-rev REV] [--current-rev REV]
        [--threshold METRIC=FRAC ...] [--require-baseline]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.catalog import (  # noqa: E402  (path bootstrap above)
    ResultsCatalog,
    current_git_rev,
    evaluate,
    format_comparison_table,
    parse_thresholds,
)
from repro.catalog.ingest import ingest_bench_file, resolve_catalog_path  # noqa: E402


def pick_baseline_rev(catalog: ResultsCatalog, current: str) -> str:
    """The newest catalog revision that is not the candidate."""
    for rev, _count in catalog.revisions():
        if rev != current and rev != "unknown":
            return rev
    raise LookupError(
        "no baseline revision in the catalog besides the candidate"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--db",
        help="catalog sqlite file (default: REPRO_CATALOG, then "
        "results/catalog.sqlite)",
    )
    parser.add_argument(
        "--ingest-bench",
        nargs="*",
        default=None,
        metavar="PATH",
        help="BENCH_*.json snapshots to ingest before gating (the "
        "committed baseline); defaults to BENCH_*.json in the repo root",
    )
    parser.add_argument(
        "--baseline-rev",
        help="baseline revision (default: newest non-candidate revision)",
    )
    parser.add_argument(
        "--current-rev",
        help="candidate revision (default: the current checkout's HEAD)",
    )
    parser.add_argument(
        "--threshold",
        action="append",
        metavar="METRIC=FRAC",
        help="signed gate fraction, sign = bad direction "
        "(default: throughput_qps=-0.05 p99_latency_us=0.10 cache_speedup=-0.25)",
    )
    parser.add_argument(
        "--require-baseline",
        action="store_true",
        help="fail (exit 2) when no baseline revision exists, instead of "
        "passing with a warning",
    )
    args = parser.parse_args(argv)

    path = resolve_catalog_path(args.db)
    if path is None:
        print("perf-gate: catalog disabled (REPRO_CATALOG=off); nothing to gate")
        return 0
    catalog = ResultsCatalog(path)

    bench_files = args.ingest_bench
    if bench_files is None:
        bench_files = sorted(str(p) for p in REPO_ROOT.glob("BENCH_*.json"))
    for bench in bench_files:
        count = ingest_bench_file(bench, catalog)
        print(f"perf-gate: ingested {count} benchmark run(s) from {bench}")

    current = args.current_rev or current_git_rev(REPO_ROOT)
    try:
        current = catalog.resolve_rev(current)
    except ValueError:
        print(
            f"perf-gate: candidate revision {current[:12]} has no runs in "
            f"{path} — run tools/bench_trajectory.py (or an experiment) "
            "first",
            file=sys.stderr,
        )
        return 2

    if args.baseline_rev:
        try:
            baseline = catalog.resolve_rev(args.baseline_rev)
        except ValueError as error:
            print(f"perf-gate: {error}", file=sys.stderr)
            return 2
    else:
        try:
            baseline = pick_baseline_rev(catalog, current)
        except LookupError as error:
            message = f"perf-gate: {error}"
            if args.require_baseline:
                print(message, file=sys.stderr)
                return 2
            print(f"{message}; passing (first run seeds the cache)")
            return 0

    thresholds = parse_thresholds(args.threshold or [])
    comparisons = catalog.compare(baseline, current)
    violations, checked = evaluate(comparisons, thresholds)

    print(
        f"perf-gate: baseline {baseline[:12]} vs candidate {current[:12]} "
        f"({len(comparisons)} shared metrics, {len(checked)} gated)"
    )
    if comparisons:
        print(format_comparison_table(comparisons, thresholds, violations))
    if not checked:
        print(
            "perf-gate: warning — no gated metrics overlap the two revisions "
            f"(thresholds: {thresholds})"
        )
    if violations:
        print(f"\nperf-gate: FAIL — {len(violations)} regression(s):",
              file=sys.stderr)
        for violation in violations:
            print(f"  {violation.describe()}", file=sys.stderr)
        return 1
    print("\nperf-gate: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
