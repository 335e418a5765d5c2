"""Soundness of the process-wide profile and decision stores.

A memo key that misses a field gives wrong numbers without a crash, so
these tests check the stores from the outside: a seeded set of BLESS
cells over 2-4-app mixes must give identical ``result_metrics``

* served in a fresh process, in one order,
* served in this process in two random orders, the stores warm, and
* served with the stores emptied before every cell;

relabelling every app (new app id and model name, same trace) must give
the same per-app numbers; and a squad that repeats a signature in
another insertion order must get exactly the uncached search's answer.
Two cells co-serve an app with a copy that keeps its model name but
not its trace (one with fewer dispatch gaps; a 5% slower rescale), so
a key that drops the profile digest merges two apps the relabelled run
keeps apart.
"""

import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.apps.application import Application, AppKind, Request
from repro.apps.models import inference_app
from repro.catalog.ingest import result_metrics
from repro.core import configurator, profiler as profiler_module
from repro.core.config import BlessConfig
from repro.core.configurator import ExecutionConfigDeterminer
from repro.core.profiler import OfflineProfiler
from repro.core.runtime import BlessRuntime
from repro.core.squad import KernelSquad, SquadEntry
from repro.gpusim.kernel import KernelSpec
from repro.workloads.suite import bind_closed_loop

from .app_variants import other_trace

REPO_ROOT = Path(__file__).resolve().parents[1]
SEED = 23
MODELS = ("VGG", "R50", "R101", "BERT", "NAS")
REQUESTS = 4


def cell_specs():
    """``[(label, [(model, variant, quota), ...], factor)]``, seeded;
    ``variant`` is None, ``"gapless"`` or ``"slow"`` (same name, other trace)."""
    rng = random.Random(SEED)
    cells = []
    for index in range(8):
        models = rng.sample(MODELS, rng.randint(2, 4))
        weights = [rng.randint(1, 4) for _ in models]
        members = [
            (model, None, weight / sum(weights))
            for model, weight in zip(models, weights)
        ]
        cells.append((f"mix{index}", members, rng.choice([0.5, 1.0, 2.0])))
    cells.append(("gapless-copy", [("R50", None, 0.5), ("R50", "gapless", 0.5)], 1.0))
    cells.append(("slow-copy", [("VGG", None, 0.5), ("VGG", "slow", 0.5)], 2.0))
    return cells


def cell_apps(members, relabel=False):
    apps = []
    for index, (model, variant, quota) in enumerate(members):
        app = inference_app(model)
        kernels = app.kernels
        if variant == "gapless":
            kernels = other_trace(app).kernels
        elif variant == "slow":
            kernels = [
                dataclasses.replace(k, base_duration_us=k.base_duration_us * 1.05)
                for k in kernels
            ]
        name = app.name
        app_id = f"{model}#{index}"
        if relabel:
            name, app_id = f"relabelled-{index}", f"client-{index}"
            kernels = list(kernels)
        app = Application(
            name=name,
            kind=app.kind,
            kernels=kernels,
            memory_mb=app.memory_mb,
        )
        apps.append(app.with_quota(quota, app_id=app_id))
    return apps


def serve(members, factor, relabel=False):
    apps = cell_apps(members, relabel)
    result = BlessRuntime().serve(bind_closed_loop(apps, factor, requests=REQUESTS))
    per_app = [
        sorted(r.latency for r in result.records if r.app_id == app.app_id)
        for app in apps
    ]
    return result_metrics(result), per_app


def serve_all(order):
    """``{label: result_metrics}`` for the cells, served in ``order``."""
    cells = cell_specs()
    return {cells[i][0]: serve(cells[i][1], cells[i][2])[0] for i in order}


def empty_stores(monkeypatch):
    monkeypatch.setattr(configurator, "_DECISIONS", {})
    monkeypatch.setattr(profiler_module, "_PROFILES", {})
    monkeypatch.setattr(profiler_module, "_BY_IDENTITY", {})


@pytest.fixture(scope="module")
def fresh_process():
    """The cells served in natural order by a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), str(REPO_ROOT), env.get("PYTHONPATH")])
    )
    code = (
        "import json, sys\n"
        "from tests.test_memo_soundness import cell_specs, serve_all\n"
        "json.dump(serve_all(range(len(cell_specs()))), sys.stdout)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestStoresDoNotChangeResults:
    def test_warm_orders_match_fresh_process(self, fresh_process):
        count = len(cell_specs())
        for seed in (1, 2):
            order = list(range(count))
            random.Random(seed).shuffle(order)
            assert serve_all(order) == fresh_process

    def test_emptied_stores_match_fresh_process(self, monkeypatch, fresh_process):
        for label, members, factor in cell_specs():
            empty_stores(monkeypatch)
            assert serve(members, factor)[0] == fresh_process[label], label

    def test_relabelled_apps_get_the_same_numbers(self):
        for label, members, factor in cell_specs():
            metrics, per_app = serve(members, factor)
            relabelled, relabelled_per_app = serve(members, factor, relabel=True)
            assert relabelled == metrics, label
            assert relabelled_per_app == per_app, label


def build_app(name, specs):
    kernels = [
        KernelSpec(
            name=f"{name}-{i}",
            base_duration_us=duration,
            sm_demand=demand,
            mem_intensity=intensity,
            dispatch_gap_us=gap,
        )
        for i, (duration, demand, intensity, gap) in enumerate(specs)
    ]
    return Application(name=name, kind=AppKind.INFERENCE, kernels=kernels, memory_mb=10)


def squad_of(apps_with_indices):
    squad = KernelSquad()
    for app, indices in apps_with_indices:
        squad.entries[app.app_id] = SquadEntry(
            request=Request(app=app, arrival_time=0.0),
            kernel_indices=list(indices),
        )
    return squad


def test_reordered_repeat_squad_gets_the_uncached_answer():
    """Each reordering of a squad is one signature (an LRU hit after the
    first) yet gets exactly what a fresh search of that order returns."""
    rng = random.Random(SEED)
    config = BlessConfig()
    profiler = OfflineProfiler(config=config)
    for case in range(30):
        pairs = []
        for index in range(rng.randint(2, 4)):
            specs = [
                (
                    rng.uniform(1.0, 400.0),
                    rng.uniform(0.05, 1.0),
                    rng.uniform(0.0, 1.0),
                    rng.choice([0.0, 5.0]),
                )
                for _ in range(rng.randint(1, 6))
            ]
            app = build_app(f"sound{case}-{index}", specs)
            count = rng.randint(1, app.num_kernels)
            start = rng.randint(0, app.num_kernels - count)
            pairs.append((app, range(start, start + count)))
        profiles = {app.app_id: profiler.profile(app) for app, _ in pairs}
        determiner = ExecutionConfigDeterminer(config)
        for shuffle in range(3):
            squad = squad_of(pairs)
            got = determiner.determine(squad, profiles)
            fresh = determiner._determine_uncached(squad, profiles)
            assert got == fresh, case
            assert list(got.partitions or ()) == list(fresh.partitions or ())
            rng.shuffle(pairs)
        assert determiner.cache_stats.hits == 2
