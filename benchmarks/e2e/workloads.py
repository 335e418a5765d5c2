"""The five end-to-end workloads, driven only through repro's public API.

Each workload is built in two phases inside a fresh rep process:
``prepare(seed, serial, tmp)`` constructs its inputs (this counts as
set-up), and the returned ``Prepared.run`` is the timed section.
``Prepared.collect`` then turns the raw outputs into checked *units*
(one per simulated result the benchmark checks) plus the workload's
simulated headline numbers, outside the timed section.

``serial=True`` runs at ``jobs=1`` with the ``inproc`` backend (and
``zoo_cli`` calls ``repro.cli.main`` in-process instead of spawning the
CLI), so a traced rep keeps every span in one process.

This module imports ``repro`` only inside functions: the benchmark's
parent process reads the workload table without importing the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

#: Pool width of the untraced reps (the benchmark box has two cores).
JOBS = 2

Unit = Dict[str, Any]  # {"key": str, "metrics": dict | None, "error": str | None}


@dataclass
class Prepared:
    run: Callable[[], Any]
    collect: Callable[[Any], Tuple[List[Unit], Dict[str, float]]]
    units: int
    # zoo_cli reports the CLI's own start-up as its set-up time.
    setup_s: Optional[float] = None


@dataclass(frozen=True)
class Workload:
    name: str
    #: Checked units one rep produces (used when a rep dies or times out).
    units_per_rep: int
    #: Typical timed-section seconds of one untraced rep on a 2-core box;
    #: a rep is killed after ``REP_TIMEOUT_FACTOR`` times this.
    expected_s: float
    prepare: Callable[[int, bool, Path], Prepared] = field(repr=False)


REP_TIMEOUT_FACTOR = 5.0


# ----------------------------------------------------------------------
# Output checks shared by every workload
# ----------------------------------------------------------------------
def gateway_shed(metrics: Mapping[str, float]) -> float:
    return sum(v for k, v in metrics.items() if k.startswith("slo_shed_admission_"))


def resolved_requests(metrics: Mapping[str, float]) -> float:
    """Completed plus gateway-shed plus fault-shed requests of one result."""
    return (
        metrics.get("completed", 0.0)
        + gateway_shed(metrics)
        + metrics.get("fault_shed_requests", 0.0)
    )


def check_unit(metrics: Mapping[str, float]) -> Optional[str]:
    """The accounting invariants every result must satisfy; None if all hold."""
    from repro.gateway.slo import check_slo_accounting

    arrived = metrics.get("fault_requests_arrived")
    if arrived is not None and resolved_requests(metrics) != arrived:
        return (
            f"fault accounting: completed={metrics.get('completed')} + "
            f"gateway shed={gateway_shed(metrics)} + fault shed="
            f"{metrics.get('fault_shed_requests', 0.0)} != arrived={arrived}"
        )
    if any(key.startswith("slo_arrived_") for key in metrics):
        try:
            check_slo_accounting(metrics)
        except AssertionError as exc:
            return str(exc)
    return None


def _unit(key: str, result) -> Unit:
    from repro.catalog.ingest import result_metrics

    metrics = result_metrics(result)
    return {"key": key, "metrics": metrics, "error": check_unit(metrics)}


def _grid(cells, name: str, serial: bool) -> Callable[[], Any]:
    from repro.parallel import run_cells

    jobs, backend = (1, "inproc") if serial else (JOBS, None)
    return partial(run_cells, cells, jobs=jobs, experiment=f"e2e_{name}", backend=backend)


# ----------------------------------------------------------------------
# bless_closed / baselines_closed: Table-2 closed loops, seven mixes
# ----------------------------------------------------------------------
LOADS = ("A", "C")
BLESS_REQUESTS = 12
BASELINE_REQUESTS = 4
BASELINE_SYSTEMS = ("TEMPORAL", "MIG", "GSLICE", "UNBOUND", "REEF+")


def _mixes():
    from repro.apps.models import MODEL_NAMES
    from repro.workloads.suite import multi_app_mix, symmetric_pair

    return [(f"{model}x2", symmetric_pair(model)) for model in MODEL_NAMES] + [
        ("mix4", multi_app_mix(4)),
        ("mix8", multi_app_mix(8)),
    ]


def _closed_cells(systems, requests: int, seed: int):
    from repro.experiments.common import INFERENCE_SYSTEMS
    from repro.parallel import ServeCell
    from repro.workloads import suite

    cells = []
    for mix, apps in _mixes():
        for load in LOADS:
            bindings = partial(
                suite.bind_closed_loop,
                apps,
                suite.LOAD_FACTORS[load],
                requests=requests,
                seed=seed,
            )
            for system in systems:
                if system == "MIG" and len(apps) > 7:
                    continue  # assign_slices cannot fit 8 tenants in 7 slices
                cells.append(
                    ServeCell(
                        key=f"{mix}/{load}/{system}",
                        system=system,
                        system_factory=INFERENCE_SYSTEMS[system],
                        bindings_factory=bindings,
                    )
                )
    return cells


def _collect_grid(cells, results) -> List[Unit]:
    return [_unit(cell.key, result) for cell, result in zip(cells, results)]


def _iso_ratio_max(cells, results) -> Dict[str, float]:
    """Max over apps of BLESS per-app mean latency over ISO's, and how many exceed 1."""
    by_key = {cell.key: result for cell, result in zip(cells, results)}
    ratios = []
    for key, bless in by_key.items():
        if not key.endswith("/BLESS"):
            continue
        iso = by_key[key[: -len("BLESS")] + "ISO"].per_app_mean_latency()
        for app_id, mean in bless.per_app_mean_latency().items():
            ratios.append(mean / iso[app_id])
    return {
        "sim_iso_ratio_max": max(ratios),
        "sim_iso_points": float(len(ratios)),
        "sim_iso_points_above": float(sum(1 for r in ratios if r > 1.0)),
    }


def prepare_bless_closed(seed: int, serial: bool, _tmp: Path) -> Prepared:
    cells = _closed_cells(("BLESS", "ISO"), BLESS_REQUESTS, seed)
    return Prepared(
        run=_grid(cells, "bless_closed", serial),
        collect=lambda results: (
            _collect_grid(cells, results),
            _iso_ratio_max(cells, results),
        ),
        units=len(cells),
    )


def prepare_baselines_closed(seed: int, serial: bool, _tmp: Path) -> Prepared:
    cells = _closed_cells(BASELINE_SYSTEMS, BASELINE_REQUESTS, seed)
    return Prepared(
        run=_grid(cells, "baselines_closed", serial),
        collect=lambda results: (_collect_grid(cells, results), {}),
        units=len(cells),
    )


# ----------------------------------------------------------------------
# slo_open_faults: flash-crowd open loop, SLO gateway, fault storm
# ----------------------------------------------------------------------
# At these settings seed 0 attains 0.40 of its latency-critical deadlines,
# leaving room to move both ways.
SLO_DEADLINE_FACTOR = 8.0
SLO_INTERVAL_FACTOR = 1.5
SLO_DURATION_INTERVALS = 10.0
SLO_SPIKES = (4.0, 8.0)
SLO_CRASH_TIMES_US = (4_000.0, 4_500.0, 5_000.0)
SLO_FAILURE_RATE = 0.01


def _slo_cells(seed: int):
    from repro.experiments.common import INFERENCE_SYSTEMS
    from repro.gpusim.faults import FaultPlan
    from repro.parallel import ServeCell
    from repro.scenarios import components
    from repro.workloads.suite import multi_app_mix, symmetric_pair

    mixes = [
        ("R50x2", symmetric_pair("R50")),
        ("BERTx2", symmetric_pair("BERT")),
        ("mix4", multi_app_mix(4)),
    ]
    cells = []
    for mix, apps in mixes:
        # Squad preemption stays off: with it on, BLESS livelocks on about
        # one cell in thirty across seeds, with or without faults (see
        # test_known_failures.py), and a benchmark must not fail on a seed.
        slo = components.slo_alternating(apps, SLO_DEADLINE_FACTOR, preempt=False)
        for spike in SLO_SPIKES:
            # Each fault seed replays its own traces: twelve independent
            # trace sets average out how much one seed's spikes cost.
            for fault_seed in (seed, seed + 1):
                bindings = partial(
                    components.bind_flash_crowd,
                    apps,
                    mean_interval_factor=SLO_INTERVAL_FACTOR,
                    duration_intervals=SLO_DURATION_INTERVALS,
                    spike_magnitude=spike,
                    seed=fault_seed,
                )
                plan = FaultPlan(
                    seed=fault_seed,
                    kernel_failure_rate=SLO_FAILURE_RATE,
                    context_crash_times=SLO_CRASH_TIMES_US,
                )
                for system in ("BLESS", "GSLICE"):
                    cells.append(
                        ServeCell(
                            key=f"{mix}/spike{spike:g}/f{fault_seed}/{system}",
                            system=system,
                            system_factory=INFERENCE_SYSTEMS[system],
                            bindings_factory=bindings,
                            system_kwargs={"fault_plan": plan, "slo": slo},
                        )
                    )
    return cells


def _slo_attainment(units: List[Unit]) -> Dict[str, float]:
    """BLESS latency-critical deadline hits over LC arrivals, pooled over cells."""
    hits = arrived = 0.0
    for unit in units:
        if unit["key"].endswith("/BLESS"):
            hits += unit["metrics"].get("slo_deadline_hits_latency_critical", 0.0)
            arrived += unit["metrics"].get("slo_arrived_latency_critical", 0.0)
    return {"sim_slo_attainment": hits / arrived}


def prepare_slo_open_faults(seed: int, serial: bool, _tmp: Path) -> Prepared:
    cells = _slo_cells(seed)

    def collect(results):
        units = _collect_grid(cells, results)
        return units, _slo_attainment(units)

    return Prepared(run=_grid(cells, "slo_open_faults", serial), collect=collect,
                    units=len(cells))


# ----------------------------------------------------------------------
# cluster_churn: online cluster under three placement policies
# ----------------------------------------------------------------------
CHURN_GPUS = 16
CHURN_REQUESTS = 4
CHURN_POLICIES = ("best_fit", "worst_fit", "contention_aware")


def churn_arrivals(seed: int):
    """``churn_schedule`` with each arrival wave's order shuffled by ``seed``.

    The schedule lists anchors, then partners, then the epoch-1 wave;
    shuffling inside each wave keeps that structure and changes which
    tenants the quota-fit policies pair.  Seed 0 keeps the committed
    order.
    """
    from repro.experiments.cluster_scale import churn_schedule

    schedule = churn_schedule(CHURN_GPUS, requests=CHURN_REQUESTS)
    if seed == 0:
        return schedule
    rng = random.Random(seed)
    waves = [schedule[:CHURN_GPUS], schedule[CHURN_GPUS : 2 * CHURN_GPUS],
             schedule[2 * CHURN_GPUS :]]
    for wave in waves:
        rng.shuffle(wave)
    return [arrival for wave in waves for arrival in wave]


def churn_offered(schedule, shed_apps) -> float:
    """Requests the schedule offers: one pass per active epoch, one if shed.

    The controller accounts an app the admission ladder refuses with a
    single pass of its offered load; every admitted app serves one
    pass per epoch it is present.
    """
    from repro.cluster.online import offered_requests

    horizon = max(
        [a.arrive_epoch + 1 for a in schedule]
        + [a.depart_epoch for a in schedule if a.depart_epoch is not None]
    )
    shed = set(shed_apps)
    total = 0.0
    for arrival in schedule:
        passes = 1 if arrival.app_id in shed else (
            (arrival.depart_epoch or horizon) - arrival.arrive_epoch
        )
        total += passes * offered_requests(arrival.binding)
    return total


def prepare_cluster_churn(seed: int, serial: bool, _tmp: Path) -> Prepared:
    from repro.cluster import OnlineClusterController, PlacementPolicy

    schedule = churn_arrivals(seed)
    controllers = [
        (policy, OnlineClusterController(
            num_gpus=CHURN_GPUS, policy=PlacementPolicy(policy), migrate=True
        ))
        for policy in CHURN_POLICIES
    ]
    jobs, backend = (1, "inproc") if serial else (JOBS, None)

    def run():
        outcomes = []
        for policy, controller in controllers:
            try:
                outcomes.append(
                    (policy, controller.serve(schedule, jobs=jobs, backend=backend), None)
                )
            except Exception as exc:  # one policy failing must not hide the others
                outcomes.append((policy, None, f"{type(exc).__name__}: {exc}"))
        return outcomes

    def collect(outcomes):
        units, sim = [], {}
        for policy, result, error in outcomes:
            if result is None:
                units.append({"key": policy, "metrics": None, "error": error})
                continue
            unit = _unit(policy, result.merged)
            metrics = unit["metrics"]
            offered = churn_offered(schedule, result.shed_apps)
            shed = gateway_shed(metrics) + metrics.get("fault_shed_requests", 0.0) + (
                metrics.get("cluster_requests_shed", 0.0)
            )
            if unit["error"] is None and metrics["completed"] + shed != offered:
                unit["error"] = (
                    f"cluster accounting: completed={metrics['completed']} + "
                    f"shed={shed} != offered={offered}"
                )
            units.append(unit)
            if policy == "contention_aware":
                sim["sim_cluster_qps"] = metrics["throughput_qps"]
        return units, sim

    return Prepared(run=run, collect=collect, units=len(controllers))


# ----------------------------------------------------------------------
# zoo_cli: the committed scenario zoo through the CLI
# ----------------------------------------------------------------------
ZOO_CELLS = 22


def _cli(args: List[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        check=False,
    )


def prepare_zoo_cli(_seed: int, serial: bool, tmp: Path) -> Prepared:
    """The committed zoo, run by name as users run it.

    ``--seed`` is not applied here: the committed ``flash_crowd``
    scenario hits the squad-preemption livelock (see
    ``test_known_failures.py``) at seeds 4 and 54 of 0-59, so re-seeding
    the zoo would make the benchmark fail on arbitrary seeds.
    """
    from repro.scenarios import list_zoo, load_zoo, resolve_scenario

    specs = [(name, resolve_scenario(load_zoo(name))["cells"]) for name in list_zoo()]
    setup_s = None
    if not serial:
        from time import perf_counter

        started = perf_counter()
        listed = _cli(["scenario", "list"])
        setup_s = perf_counter() - started
        if listed.returncode != 0:
            raise RuntimeError(f"repro scenario list failed: {listed.stderr[-2000:]}")

    def run_one(name: str, output: Path) -> Optional[str]:
        if serial:
            from repro.cli import main

            argv = ["scenario", "run", name, "--jobs", "1", "--backend", "inproc",
                    "--output", str(output)]
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv)
            except Exception as exc:
                return f"{type(exc).__name__}: {exc}"
            return None if code == 0 else f"exit code {code}"
        done = _cli(["scenario", "run", name, "--jobs", str(JOBS), "--output", str(output)])
        return None if done.returncode == 0 else done.stderr[-2000:]

    def run():
        outcomes = []
        for name, cells in specs:
            output = tmp / f"zoo-{name}.json"
            outcomes.append((name, cells, output, run_one(name, output)))
        return outcomes

    def collect(outcomes):
        units = []
        for name, cells, output, error in outcomes:
            if error is not None:
                units.extend(
                    {"key": f"{name}/{i}", "metrics": None, "error": error}
                    for i in range(cells)
                )
                continue
            for point, by_system in json.loads(output.read_text()).items():
                for system, metrics in by_system.items():
                    units.append({"key": f"{name}/{point}/{system}",
                                  "metrics": metrics, "error": check_unit(metrics)})
        return units, {}

    return Prepared(run=run, collect=collect, units=sum(cells for _, cells in specs),
                    setup_s=setup_s)


#: Why each workload is in the benchmark: BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("bless_closed", units_per_rep=28, expected_s=3.0,
                 prepare=prepare_bless_closed),
        Workload("baselines_closed", units_per_rep=68, expected_s=3.0,
                 prepare=prepare_baselines_closed),
        Workload("slo_open_faults", units_per_rep=24, expected_s=3.5,
                 prepare=prepare_slo_open_faults),
        Workload("cluster_churn", units_per_rep=3, expected_s=3.0,
                 prepare=prepare_cluster_churn),
        Workload("zoo_cli", units_per_rep=ZOO_CELLS, expected_s=3.0,
                 prepare=prepare_zoo_cli),
    )
}
