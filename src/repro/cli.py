"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``experiments``            list the per-figure experiment modules
``experiment <name>``      run one experiment's main()
``serve``                  serve a workload on chosen systems and compare
``profile <model>``        print an application's offline profile summary
``timeline``               render an execution timeline for a small run
``sweep-quota``            sweep 2-app quota splits (Fig. 12-style rows)
``results``                query the sqlite results catalog
                           (``list`` / ``query`` / ``compare`` / ``gc`` /
                           ``ingest-bench``; see docs/results-catalog.md)
``scenario``               list / show / run declarative scenarios
                           (the committed zoo or any spec file;
                           see docs/scenarios.md)

Examples
--------
python -m repro serve --models R50 R50 --load C --systems GSLICE BLESS
python -m repro profile BERT --partitions 18 9 5
python -m repro timeline --models VGG R50 --width 100
python -m repro serve --models R50 VGG --load B --systems BLESS --trace trace.json
python -m repro results compare origin-main HEAD --threshold throughput_qps=-0.05
python -m repro scenario run llm_inference_tails --jobs 2
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import List, Optional

from .apps.models import MODEL_NAMES, inference_app, training_app
from .core.profiler import OfflineProfiler
from .experiments import ALL_EXPERIMENTS
from .experiments.common import INFERENCE_SYSTEMS
from .gpusim.device import GPUSpec
from .metrics.io import save_results
from .viz.charts import bar_chart, reduction_table
from .viz.timeline import render_timeline
from .workloads.suite import bind_load


def _apps_from_args(models: List[str], quotas: Optional[List[float]], training: bool):
    maker = training_app if training else inference_app
    if quotas is None:
        quotas = [1.0 / len(models)] * len(models)
    if len(quotas) != len(models):
        raise SystemExit("error: --quotas must match --models in length")
    apps = []
    for index, (model, quota) in enumerate(zip(models, quotas)):
        base = maker(model)
        apps.append(base.with_quota(quota, app_id=f"{base.name}#{index}"))
    return apps


def cmd_experiments(_args) -> int:
    print("available experiments (run with: python -m repro experiment <name>):")
    for name in ALL_EXPERIMENTS:
        print(f"  {name}")
    return 0


def cmd_report(args) -> int:
    from .experiments import report

    digest = report.run(json_path=args.json, jobs=args.jobs)
    from .experiments.common import format_table

    rows = [[name, e["measured"], e["paper"]] for name, e in digest.items()]
    print(format_table(["artifact", "measured", "paper"], rows,
                       title="BLESS reproduction digest"))
    return 0


def cmd_experiment(args) -> int:
    if args.name not in ALL_EXPERIMENTS:
        print(f"unknown experiment {args.name!r}; see `python -m repro experiments`")
        return 2
    module = importlib.import_module(f"repro.experiments.{args.name}")
    module.main(jobs=args.jobs)
    return 0


def _trace_path(target: str, system: str, multiple: bool) -> str:
    """Per-system trace filename: suffix the stem when comparing systems."""
    if not multiple:
        return target
    from pathlib import Path

    path = Path(target)
    return str(path.with_name(f"{path.stem}-{system}{path.suffix}"))


def _write_trace(tracer, target: str) -> str:
    """Export a tracer's unified stream; format chosen by extension."""
    from .obs import save_jsonl, save_perfetto

    if target.endswith(".jsonl"):
        count = save_jsonl(tracer.records, target)
    else:
        count = save_perfetto(tracer.records, target)
    return f"{target} ({count} events)"


def cmd_serve(args) -> int:
    apps = _apps_from_args(args.models, args.quotas, args.training)
    unknown = [s for s in args.systems if s not in INFERENCE_SYSTEMS]
    if unknown:
        print(f"unknown systems: {unknown}; choose from {list(INFERENCE_SYSTEMS)}")
        return 2
    from .gpusim.faults import resolve_fault_plan
    from .obs import analyze, resolve_trace_target, resolve_tracing

    fault_plan = resolve_fault_plan(args.fault_plan, args.fault_seed)
    if fault_plan is not None:
        print(f"fault plan: {fault_plan.describe()}")
    slo = None
    if args.slo_mix:
        from .gateway import parse_slo_mix, slo_rates

        slo = parse_slo_mix(args.slo_mix, [a.app_id for a in apps])
        classes = ", ".join(
            f"{a.app_id}={slo.slo_class(a.app_id)}" for a in apps
        )
        print(f"slo mix: {classes} (preempt={'on' if slo.preempt else 'off'})")
    tracing = bool(args.trace) or resolve_tracing()
    trace_target = resolve_trace_target(args.trace)
    results = []
    latencies = {}
    for name in args.systems:
        system = INFERENCE_SYSTEMS[name](
            fault_plan=fault_plan, trace=True if tracing else None, slo=slo
        )
        result = system.serve(bind_load(apps, args.load, requests=args.requests))
        results.append(result)
        if trace_target and system.obs.tracer is None:
            print(f"  trace: {name} does not support decision tracing")
        elif trace_target:
            path = _trace_path(trace_target, name, multiple=len(args.systems) > 1)
            print(f"  trace: {_write_trace(system.obs.tracer, path)}")
            print("  post-hoc analysis:")
            for section, values in analyze(system.obs.tracer.records).items():
                rendered = ", ".join(f"{k}={v:.4g}" for k, v in values.items())
                print(f"    {section}: {rendered}")
        latencies[name] = result.mean_of_app_means() / 1000.0
        per_app = ", ".join(
            f"{a}={v / 1000:.2f}ms" for a, v in result.per_app_mean_latency().items()
        )
        line = (f"{name:9s} avg {latencies[name]:7.2f} ms  "
                f"util {result.utilization:5.1%}  [{per_app}]")
        if fault_plan is not None:
            shed = result.extras.get("fault_shed_requests", 0.0)
            degraded = result.extras.get("fault_degradation_events", 0.0)
            line += f"  shed={shed:.0f} degradation={degraded:.0f}"
        if slo is not None:
            attainment = slo_rates(result.extras).get("slo_attainment")
            if attainment is not None:
                line += f"  slo={attainment:.0%}"
            preemptions = result.extras.get("slo_preemptions", 0.0)
            if preemptions > 0:
                line += f" preempt={preemptions:.0f}"
        print(line)
    print()
    print(bar_chart(latencies, title=f"average latency, load {args.load}",
                    highlight="BLESS" if "BLESS" in latencies else None))
    if "BLESS" in latencies and len(latencies) > 1:
        print()
        print(reduction_table(latencies))
    if args.output:
        save_results(results, args.output)
        print(f"\nsaved results to {args.output}")
    # Record the comparison in the results catalog (REPRO_CATALOG=off
    # opts out) so ad-hoc serves are queryable next to the sweeps.
    from .catalog.ingest import ingest_metrics_safe, result_metrics

    artifacts = [("results", args.output)] if args.output else []
    for name, result in zip(args.systems, results):
        ingest_metrics_safe(
            "serve",
            name,
            {
                "experiment": "serve",
                "models": list(args.models),
                "quotas": args.quotas,
                "load": args.load,
                "requests": args.requests,
                "training": bool(args.training),
                "fault_plan": fault_plan.describe() if fault_plan else None,
                "slo_mix": args.slo_mix or None,
            },
            result_metrics(result),
            artifacts=artifacts,
        )
    return 0


def cmd_cluster(args) -> int:
    """Serve a workload on a multi-GPU cluster (§4.2.2 orchestrator)."""
    from .cluster import (
        AppArrival,
        ClusterController,
        OnlineClusterController,
        PlacementError,
        PlacementPolicy,
    )
    from .gpusim.faults import resolve_fault_plan
    from .obs import resolve_trace_target, resolve_tracing

    if args.system not in INFERENCE_SYSTEMS:
        print(f"unknown system {args.system!r}; choose from {list(INFERENCE_SYSTEMS)}")
        return 2
    apps = _apps_from_args(args.models, args.quotas, args.training)
    bindings = bind_load(apps, args.load, requests=args.requests)
    fault_plan = resolve_fault_plan(args.fault_plan, args.fault_seed)
    if fault_plan is not None:
        print(f"fault plan: {fault_plan.describe()}")
    system_kwargs = {"fault_plan": fault_plan} if fault_plan is not None else {}
    tracing = bool(args.trace) or resolve_tracing()
    trace_target = resolve_trace_target(args.trace)
    policy = PlacementPolicy(args.policy)

    if args.online:
        # One application arrives per epoch, in --models order.
        schedule = [
            AppArrival(binding=binding, arrive_epoch=index)
            for index, binding in enumerate(bindings)
        ]
        controller = OnlineClusterController(
            num_gpus=args.gpus,
            policy=policy,
            system_factory=INFERENCE_SYSTEMS[args.system],
            system_kwargs=system_kwargs,
            migrate=args.migrate,
            trace=True if tracing else None,
        )
        result = controller.serve(schedule, epochs=args.epochs, jobs=args.jobs)
        stats = result.stats
        print(
            f"online: {stats.epochs} epochs, "
            f"{stats.apps_admitted}/{stats.apps_arrived} admitted "
            f"({stats.apps_degraded} degraded, {stats.apps_shed} shed, "
            f"{stats.migrations} migrations)"
        )
        if result.shed_apps:
            print(f"shed apps: {', '.join(result.shed_apps)}")
        final_placement = result.placements[-1] if result.placements else {}
    else:
        controller = ClusterController(
            num_gpus=args.gpus,
            policy=policy,
            system_factory=INFERENCE_SYSTEMS[args.system],
            system_kwargs=system_kwargs,
            trace=True if tracing else None,
        )
        try:
            result = controller.serve(bindings, jobs=args.jobs)
        except PlacementError as error:
            print(f"placement failed: {error}")
            print("(try more --gpus, smaller --quotas, or --online shedding)")
            return 2
        final_placement = result.placements

    merged = result.merged
    for gpu_index in sorted(final_placement):
        print(f"  GPU{gpu_index}: {', '.join(final_placement[gpu_index])}")
    line = (
        f"{merged.system}: avg {merged.mean_of_app_means() / 1000:.2f} ms, "
        f"util {merged.utilization:.1%} over {args.gpus} GPUs, "
        f"{len(merged.records)} requests"
    )
    if fault_plan is not None:
        shed = merged.extras.get("fault_shed_requests", 0.0)
        arrived = merged.extras.get("fault_requests_arrived", 0.0)
        line += f"  [arrived={arrived:.0f} shed={shed:.0f}]"
    print(line)
    if trace_target and controller.tracer is not None:
        print(f"trace: {_write_trace(controller.tracer, trace_target)}")
        if not trace_target.endswith(".jsonl"):
            print("open it at https://ui.perfetto.dev (per-GPU tracks)")
    return 0


def cmd_scenario_list(_args) -> int:
    from .experiments.common import format_table
    from .scenarios import list_zoo, load_zoo

    rows = []
    for name in list_zoo():
        try:
            spec = load_zoo(name)
            rows.append([name, str(len(spec.systems)),
                         str(len(spec.sweep)) or "0", spec.description])
        except Exception as error:  # a broken zoo file should still list
            rows.append([name, "?", "?", f"unreadable: {error}"])
    print(format_table(["scenario", "systems", "axes", "description"], rows,
                       title="scenario zoo (run with: repro scenario run <name>)"))
    return 0


def cmd_scenario_show(args) -> int:
    from .experiments.common import format_table
    from .scenarios import dumps, expand_sweep, load_zoo, resolve_scenario

    spec = load_zoo(args.name)
    summary = resolve_scenario(spec)
    print(dumps(spec), end="")
    rows = [[key, " ".join(point.systems)] for key, point in expand_sweep(spec)]
    print(format_table(["point", "systems"], rows,
                       title=f"{summary['points']} point(s), "
                       f"{summary['cells']} cell(s), "
                       f"apps: {', '.join(summary['apps'])}"))
    return 0


def cmd_scenario_run(args) -> int:
    import json as _json

    from .experiments.common import format_table
    from .scenarios import load_zoo, run_scenario

    spec = load_zoo(args.name)
    results = run_scenario(spec, jobs=args.jobs, backend=args.backend)
    if args.json:
        print(_json.dumps(results, indent=2, sort_keys=True))
    else:
        rows = []
        for point, by_system in results.items():
            for system, metrics in by_system.items():
                rows.append([
                    point,
                    system,
                    f"{metrics.get('mean_latency_us', float('nan')) / 1000:.2f}",
                    f"{metrics.get('p99_latency_us', float('nan')) / 1000:.2f}",
                    f"{metrics.get('throughput_qps', float('nan')):.1f}",
                    f"{metrics.get('utilization', float('nan')):.1%}",
                ])
        print(format_table(
            ["point", "system", "mean ms", "p99 ms", "qps", "util"],
            rows, title=f"scenario {spec.name}"))
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(
            _json.dumps(results, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"saved results to {args.output}")
    return 0


def _open_catalog(args):
    from .catalog import ResultsCatalog
    from .catalog.ingest import resolve_catalog_path

    path = resolve_catalog_path(args.db)
    if path is None:
        raise SystemExit(
            "error: the results catalog is disabled (REPRO_CATALOG=off); "
            "pass --db PATH to query one explicitly"
        )
    if not path.exists() and not getattr(args, "create", False):
        raise SystemExit(
            f"error: no catalog at {path} (run an experiment first, or pass "
            "--db pointing at one; see docs/results-catalog.md)"
        )
    return ResultsCatalog(path)


def cmd_results_list(args) -> int:
    from .experiments.common import format_table

    with _open_catalog(args) as catalog:
        rows = catalog.runs(
            experiment=args.experiment,
            system=args.system,
            git_rev=catalog.resolve_rev(args.rev) if args.rev else None,
            limit=args.limit,
        )
        table = [
            [
                str(run.run_id),
                run.created_at[:19],
                run.experiment,
                run.system,
                run.git_rev[:10],
                run.config_hash[:10],
                f"{run.wall_time_s:.2f}s" if run.wall_time_s is not None else "-",
            ]
            for run in rows
        ]
        print(
            format_table(
                ["run", "created (utc)", "experiment", "system", "rev",
                 "config", "wall"],
                table,
                title=f"{catalog.path}: {catalog.count_runs()} runs, "
                f"{len(catalog.revisions())} revisions "
                f"(showing {len(rows)})",
            )
        )
    return 0


def cmd_results_query(args) -> int:
    import json as _json

    from .experiments.common import format_table

    with _open_catalog(args) as catalog:
        rev = catalog.resolve_rev(args.rev) if args.rev else None
        revisions = [rev] if rev else [r for r, _ in catalog.revisions()]
        rows = []
        for revision in revisions:
            values = catalog.metric_values(
                revision,
                metric=args.metric,
                experiment=args.experiment,
                system=args.system,
            )
            for (experiment, system, metric), series in sorted(values.items()):
                rows.append(
                    {
                        "rev": revision,
                        "experiment": experiment,
                        "system": system,
                        "metric": metric,
                        "runs": len(series),
                        "median": sorted(series)[len(series) // 2],
                        "latest": series[-1],
                    }
                )
        if args.json:
            print(_json.dumps(rows, indent=2))
            return 0
        print(
            format_table(
                ["rev", "experiment", "system", "metric", "runs", "median",
                 "latest"],
                [
                    [
                        row["rev"][:10],
                        row["experiment"],
                        row["system"],
                        row["metric"],
                        str(row["runs"]),
                        f"{row['median']:.6g}",
                        f"{row['latest']:.6g}",
                    ]
                    for row in rows
                ],
            )
        )
    return 0


def cmd_results_compare(args) -> int:
    """Diff two revisions' metrics; exit 1 past the regression thresholds."""
    import json as _json

    from .catalog import evaluate, format_comparison_table, parse_thresholds

    thresholds = parse_thresholds(args.threshold or [])
    with _open_catalog(args) as catalog:
        try:
            rev_a = catalog.resolve_rev(args.rev_baseline)
            rev_b = catalog.resolve_rev(args.rev_current)
        except ValueError as error:
            print(f"error: {error}")
            return 2
        comparisons = catalog.compare(
            rev_a,
            rev_b,
            metrics=args.metric or None,
            experiment=args.experiment,
            system=args.system,
        )
        violations, checked = evaluate(comparisons, thresholds)
        if args.json:
            print(
                _json.dumps(
                    {
                        "baseline": rev_a,
                        "current": rev_b,
                        "thresholds": thresholds,
                        "checked": len(checked),
                        "violations": [v.describe() for v in violations],
                    },
                    indent=2,
                )
            )
        else:
            print(f"baseline {rev_a[:12]} vs current {rev_b[:12]} "
                  f"({len(comparisons)} shared metrics, {len(checked)} gated)")
            if comparisons:
                print(format_comparison_table(comparisons, thresholds, violations))
            if not checked:
                print("note: no gated metrics overlap these revisions "
                      f"(thresholds: {thresholds})")
            if violations:
                print(f"\nPERF GATE: {len(violations)} regression(s) "
                      "past threshold:")
                for violation in violations:
                    print(f"  {violation.describe()}")
            else:
                print("\nPERF GATE: ok")
        return 1 if violations else 0


def cmd_results_gc(args) -> int:
    with _open_catalog(args) as catalog:
        dropped = catalog.gc(
            keep_per_config=args.keep, before=args.before, dry_run=args.dry_run
        )
        verb = "would drop" if args.dry_run else "dropped"
        print(f"{verb} {dropped} run(s); {catalog.count_runs()} remain "
              f"in {catalog.path}")
    return 0


def cmd_results_ingest_bench(args) -> int:
    """Load BENCH_*.json trajectory snapshots into the catalog (CI baseline)."""
    from .catalog import ResultsCatalog
    from .catalog.ingest import ingest_bench_file, resolve_catalog_path

    path = resolve_catalog_path(args.db)
    if path is None:
        raise SystemExit("error: catalog disabled (REPRO_CATALOG=off)")
    total = 0
    with ResultsCatalog(path) as catalog:
        for bench_path in args.paths:
            count = ingest_bench_file(bench_path, catalog)
            print(f"ingested {count} benchmark run(s) from {bench_path}")
            total += count
    print(f"{total} run(s) into {path}")
    return 0


def cmd_profile(args) -> int:
    maker = training_app if args.training else inference_app
    app = maker(args.model)
    profile = OfflineProfiler().profile(app)
    n = profile.num_partitions
    bad = [p for p in args.partitions if not 1 <= p <= n]
    if bad:
        print(f"--partitions must lie in [1, {n}]; got {bad[0]}")
        return 2
    print(f"{app.name}: {app.num_compute_kernels} compute kernels, "
          f"{app.memory_mb} MB, solo {app.solo_span_us / 1000:.2f} ms "
          f"(GPU busy {app.total_compute_us / app.solo_span_us:.0%})")
    print(f"profiling cost: {profile.profiling_cost_us / 1e6:.2f} s "
          f"({profile.num_partitions} partitioned runs)")
    print(f"\n{'partition':>9s} {'SMs':>5s} {'T[n%] (ms)':>11s}")
    gpu = GPUSpec()
    for partition in args.partitions:
        sms = gpu.sm_count(partition / n)
        print(f"{partition:9d} {sms:5d} {profile.iso_latency(partition) / 1000:11.2f}")
    return 0


def cmd_timeline(args) -> int:
    from .core.runtime import BlessRuntime
    from .workloads.arrivals import OneShot
    from .workloads.suite import WorkloadBinding

    apps = _apps_from_args(args.models, args.quotas, training=False)
    system = BlessRuntime(record_timeline=True)
    result = system.serve(
        [WorkloadBinding(app=a, process_factory=OneShot) for a in apps]
    )
    view = render_timeline(system.engine.timeline, width=args.width)
    print(view.render())
    print()
    for app in apps:
        print(f"{app.app_id}: {result.mean_latency(app.app_id) / 1000:.2f} ms")
    return 0


def cmd_sweep_quota(args) -> int:
    from .experiments.fig12_latency_chart import run

    if len(args.models) != 2:
        print("sweep-quota needs exactly two --models")
        return 2
    print(f"{'quotas':>13s} {'BLESS app1':>11s} {'BLESS app2':>11s} "
          f"{'ISO app1':>9s} {'ISO app2':>9s}")
    for p in run(args.models[0], args.models[1], args.load, args.requests):
        print(
            f"({p['quota_a']:.2f},{p['quota_b']:.2f})"
            f" {p['bless_a_ms']:11.2f} {p['bless_b_ms']:11.2f}"
            f" {p['iso_a_ms']:9.2f} {p['iso_b_ms']:9.2f}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="BLESS reproduction command-line interface"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("experiments", help="list experiment modules").set_defaults(
        func=cmd_experiments
    )

    jobs_help = (
        "worker processes for independent simulation cells "
        "(default: all cores; 1 = serial, output is identical either way)"
    )

    p = sub.add_parser("report", help="run the full reproduction digest")
    p.add_argument("--json", help="also write the digest as JSON here")
    p.add_argument("--jobs", type=int, default=0, help=jobs_help)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("experiment", help="run one experiment")
    p.add_argument("name")
    p.add_argument("--jobs", type=int, default=0, help=jobs_help)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("serve", help="serve a workload and compare systems")
    p.add_argument("--models", nargs="+", required=True, choices=MODEL_NAMES)
    p.add_argument("--quotas", nargs="+", type=float)
    p.add_argument("--load", default="B", choices=["A", "B", "C"])
    p.add_argument("--requests", type=int, default=8)
    p.add_argument(
        "--systems", nargs="+", default=["ISO", "GSLICE", "UNBOUND", "BLESS"]
    )
    p.add_argument("--training", action="store_true")
    p.add_argument("--output", help="save results JSON here")
    p.add_argument(
        "--fault-plan",
        help="inject faults, e.g. 'failure=0.05,crash=4000,seed=7' "
        "(default: the REPRO_FAULT_PLAN environment variable)",
    )
    p.add_argument(
        "--fault-seed", type=int,
        help="override the fault plan's seed (REPRO_FAULT_SEED)",
    )
    p.add_argument(
        "--slo-mix",
        metavar="CLASSES",
        help="attach a serving gateway: comma-separated SLO classes in "
        "--models order, cycled (e.g. 'lc,be'; 'lc:2.0' sets that "
        "app's deadline to 2x solo latency). Latency-critical "
        "arrivals preempt best-effort squads on BLESS.",
    )
    p.add_argument(
        "--trace",
        metavar="PATH",
        help="record decision traces, write one Perfetto JSON per "
        "system to PATH (.jsonl extension writes JSON lines; "
        "default: the REPRO_TRACE environment variable) and print "
        "each trace's post-hoc analysis",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "results",
        help="query the sqlite results catalog (docs/results-catalog.md)",
    )
    results_sub = p.add_subparsers(dest="results_command", required=True)
    db_help = (
        "catalog sqlite file (default: REPRO_CATALOG, then "
        "results/catalog.sqlite)"
    )

    rp = results_sub.add_parser("list", help="list recorded runs, newest first")
    rp.add_argument("--db", help=db_help)
    rp.add_argument("--experiment", help="filter by experiment name")
    rp.add_argument("--system", help="filter by system name")
    rp.add_argument("--rev", help="filter by git revision (prefix or HEAD)")
    rp.add_argument("--limit", type=int, default=20)
    rp.set_defaults(func=cmd_results_list)

    rp = results_sub.add_parser(
        "query", help="per-(experiment, system, metric) values by revision"
    )
    rp.add_argument("--db", help=db_help)
    rp.add_argument("--experiment", help="filter by experiment name")
    rp.add_argument("--system", help="filter by system name")
    rp.add_argument("--rev", help="one revision only (prefix or HEAD)")
    rp.add_argument("--metric", help="one metric name (default: all)")
    rp.add_argument("--json", action="store_true", help="emit JSON rows")
    rp.set_defaults(func=cmd_results_query)

    rp = results_sub.add_parser(
        "compare",
        help="diff two revisions' metric medians; exit 1 past thresholds",
    )
    rp.add_argument("rev_baseline", help="baseline revision (prefix or HEAD)")
    rp.add_argument("rev_current", help="candidate revision (prefix or HEAD)")
    rp.add_argument("--db", help=db_help)
    rp.add_argument("--experiment", help="restrict to one experiment")
    rp.add_argument("--system", help="restrict to one system")
    rp.add_argument(
        "--metric", action="append",
        help="restrict the diff to these metrics (repeatable)",
    )
    rp.add_argument(
        "--threshold",
        action="append",
        metavar="METRIC=FRAC",
        help="gate: signed fraction, sign = bad direction (default: "
        "throughput_qps=-0.05 p99_latency_us=0.10 cache_speedup=-0.25)",
    )
    rp.add_argument("--json", action="store_true", help="emit a JSON verdict")
    rp.set_defaults(func=cmd_results_compare)

    rp = results_sub.add_parser("gc", help="bound the catalog's size")
    rp.add_argument("--db", help=db_help)
    rp.add_argument(
        "--keep", type=int, default=10,
        help="newest runs kept per (experiment, system, config hash)",
    )
    rp.add_argument("--before", help="also drop runs created before this ISO time")
    rp.add_argument("--dry-run", action="store_true")
    rp.set_defaults(func=cmd_results_gc)

    rp = results_sub.add_parser(
        "ingest-bench",
        help="load BENCH_*.json trajectory snapshots (the CI baseline seed)",
    )
    rp.add_argument("paths", nargs="+", help="BENCH_*.json files")
    rp.add_argument("--db", help=db_help)
    rp.set_defaults(func=cmd_results_ingest_bench)

    p = sub.add_parser(
        "cluster", help="serve a workload across a multi-GPU cluster (§4.2.2)"
    )
    p.add_argument("--gpus", type=int, default=2, help="GPUs in the pool")
    p.add_argument("--models", nargs="+", required=True, choices=MODEL_NAMES)
    p.add_argument("--quotas", nargs="+", type=float)
    p.add_argument(
        "--policy",
        "--placement",
        default="best_fit",
        choices=["first_fit", "best_fit", "worst_fit", "contention_aware"],
        help="placement policy (contention_aware = Eq. 2 interference-"
        "cost minimization, see docs/cluster.md)",
    )
    p.add_argument("--load", default="B", choices=["A", "B", "C"])
    p.add_argument("--requests", type=int, default=8)
    p.add_argument("--system", default="BLESS")
    p.add_argument("--training", action="store_true")
    p.add_argument("--jobs", type=int, default=None, help=jobs_help)
    p.add_argument(
        "--online",
        action="store_true",
        help="online mode: apps arrive one per epoch through the "
        "admission ladder (degrade -> migrate -> shed)",
    )
    p.add_argument(
        "--epochs", type=int, default=None,
        help="online horizon (default: derived from the schedule)",
    )
    p.add_argument(
        "--migrate", action="store_true",
        help="rebalance one app between epochs when it shrinks the quota spread",
    )
    p.add_argument("--fault-plan", help="inject faults (see `serve --fault-plan`)")
    p.add_argument("--fault-seed", type=int)
    p.add_argument(
        "--trace",
        metavar="PATH",
        help="record cluster + per-GPU decision traces to PATH "
        "(.jsonl = JSON lines, else Perfetto trace_event)",
    )
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser(
        "scenario",
        help="list, inspect, and run declarative scenarios (docs/scenarios.md)",
    )
    scenario_sub = p.add_subparsers(dest="scenario_command", required=True)

    sp = scenario_sub.add_parser("list", help="list the committed scenario zoo")
    sp.set_defaults(func=cmd_scenario_list)

    sp = scenario_sub.add_parser(
        "show", help="print a scenario's canonical spec and resolved grid"
    )
    sp.add_argument("name", help="zoo scenario name or a spec file path")
    sp.set_defaults(func=cmd_scenario_show)

    sp = scenario_sub.add_parser(
        "run", help="run every sweep point x system cell of a scenario"
    )
    sp.add_argument("name", help="zoo scenario name or a spec file path")
    sp.add_argument("--jobs", type=int, default=None, help=jobs_help)
    sp.add_argument(
        "--backend", default=None, choices=["auto", "inproc", "pool"],
        help="cell execution backend (default: REPRO_BACKEND, then auto)",
    )
    sp.add_argument("--json", action="store_true", help="emit the full metrics JSON")
    sp.add_argument("--output", help="also write the metrics JSON here")
    sp.set_defaults(func=cmd_scenario_run)

    p = sub.add_parser("profile", help="offline-profile one application")
    p.add_argument("model", choices=MODEL_NAMES)
    p.add_argument("--partitions", nargs="+", type=int, default=[18, 12, 9, 6, 3])
    p.add_argument("--training", action="store_true")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("timeline", help="render a BLESS execution timeline")
    p.add_argument("--models", nargs="+", required=True, choices=MODEL_NAMES)
    p.add_argument("--quotas", nargs="+", type=float)
    p.add_argument("--width", type=int, default=80)
    p.set_defaults(func=cmd_timeline)

    p = sub.add_parser("sweep-quota", help="sweep the seven 2-app quota splits")
    p.add_argument("--models", nargs="+", required=True, choices=MODEL_NAMES)
    p.add_argument("--load", default="B", choices=["A", "B", "C"])
    p.add_argument("--requests", type=int, default=6)
    p.set_defaults(func=cmd_sweep_quota)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
