"""Process-parallel experiment runner: determinism and golden output.

The harness fans independent (system, workload-binding) cells across a
``ProcessPoolExecutor``; because every cell rebuilds its workload from
its own seed inside the worker and results merge in submission order,
``jobs=N`` must be *byte-identical* to ``jobs=1``.  Also pins the
``--jobs 1`` output of fig13 to a golden capture from the pre-overhaul
engine, proving the fast path changed nothing observable.
"""

import json
import os
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.models import MODEL_NAMES, inference_app
from repro.experiments.common import INFERENCE_SYSTEMS, serve_all
from repro.parallel import (
    CellExecutionError,
    ServeCell,
    resolve_backend,
    resolve_jobs,
    run_cells,
)
from repro.workloads.suite import bind_load

GOLDEN = Path(__file__).parent / "golden" / "fig13_inference_small.json"


def result_fingerprint(result):
    """Everything observable about a ServingResult, fully ordered.

    ``request_id`` is excluded: it comes from a process-global counter,
    so only its relative order (already captured by record order) is
    meaningful across runs.
    """
    return (
        result.system,
        result.makespan_us,
        result.utilization,
        tuple((r.app_id, r.arrival, r.finish) for r in result.records),
        tuple(sorted(result.extras.items())),
    )


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(2) == 2

    def test_zero_means_all_cores(self):
        import os

        assert resolve_jobs(0) == (os.cpu_count() or 1)


class TestParallelDeterminism:
    @settings(max_examples=4, deadline=None)
    @given(
        model_a=st.sampled_from(MODEL_NAMES),
        model_b=st.sampled_from(MODEL_NAMES),
        load=st.sampled_from(["A", "B"]),
        requests=st.integers(min_value=1, max_value=2),
        quota=st.sampled_from([0.3, 0.5, 0.7]),
    )
    def test_parallel_equals_serial(self, model_a, model_b, load, requests, quota):
        apps = [
            inference_app(model_a).with_quota(quota, app_id="app1"),
            inference_app(model_b).with_quota(1.0 - quota, app_id="app2"),
        ]
        bindings = partial(bind_load, apps, load, requests=requests)
        systems = {
            "GSLICE": INFERENCE_SYSTEMS["GSLICE"],
            "BLESS": INFERENCE_SYSTEMS["BLESS"],
        }
        serial = serve_all(bindings, systems=systems, jobs=1)
        parallel = serve_all(bindings, systems=systems, jobs=4)
        assert list(serial) == list(parallel)
        for name in serial:
            assert result_fingerprint(serial[name]) == result_fingerprint(
                parallel[name]
            ), name

    def test_same_seed_repeatable(self):
        apps = [
            inference_app("R50").with_quota(0.5, app_id="app1"),
            inference_app("VGG").with_quota(0.5, app_id="app2"),
        ]
        bindings = partial(bind_load, apps, "B", requests=2)
        first = serve_all(bindings, jobs=1)
        second = serve_all(bindings, jobs=1)
        for name in first:
            assert result_fingerprint(first[name]) == result_fingerprint(
                second[name]
            )

    def test_run_cells_preserves_order(self):
        apps = [
            inference_app("R50").with_quota(0.5, app_id="app1"),
            inference_app("R50").with_quota(0.5, app_id="app2"),
        ]
        bindings = partial(bind_load, apps, "A", requests=1)
        cells = [
            ServeCell(
                key=index,
                system=name,
                system_factory=INFERENCE_SYSTEMS[name],
                bindings_factory=bindings,
            )
            for index, name in enumerate(["BLESS", "GSLICE", "TEMPORAL"])
        ]
        results = run_cells(cells, jobs=3)
        assert [r.system for r in results] == ["BLESS", "GSLICE", "TEMPORAL"]


class TestBackends:
    """The inproc backend: policy resolution and output identity."""

    def test_default_is_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend(None) == "auto"

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "inproc")
        assert resolve_backend(None) == "inproc"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "inproc")
        assert resolve_backend("pool") == "pool"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("threads")

    def _cells(self):
        apps = [
            inference_app("R50").with_quota(0.5, app_id="app1"),
            inference_app("VGG").with_quota(0.5, app_id="app2"),
        ]
        bindings = partial(bind_load, apps, "B", requests=2)
        return [
            ServeCell(
                key=index,
                system=name,
                system_factory=INFERENCE_SYSTEMS[name],
                bindings_factory=bindings,
            )
            for index, name in enumerate(["BLESS", "GSLICE"])
        ]

    def test_inproc_equals_pool_equals_serial(self):
        serial = run_cells(self._cells(), jobs=1)
        inproc = run_cells(self._cells(), jobs=4, backend="inproc")
        pool = run_cells(self._cells(), jobs=4, backend="pool")
        for a, b, c in zip(serial, inproc, pool):
            assert result_fingerprint(a) == result_fingerprint(b)
            assert result_fingerprint(a) == result_fingerprint(c)

    def test_inproc_never_touches_the_pool(self, monkeypatch):
        from repro import parallel

        def boom(workers):  # pragma: no cover - failure path
            raise AssertionError("inproc backend must not build a pool")

        monkeypatch.setattr(parallel, "_get_pool", boom)
        results = run_cells(self._cells(), jobs=4, backend="inproc")
        assert [r.system for r in results] == ["BLESS", "GSLICE"]


def _broken_bindings():
    raise RuntimeError("synthetic workload failure")


def _worker_only_broken_bindings(parent_pid, apps):
    # Fails only inside pool workers: the serial re-run (same process
    # as the submitter) succeeds, modelling a worker-environment
    # casualty rather than a simulation bug.
    if os.getpid() != parent_pid:
        raise RuntimeError("worker environment casualty")
    return bind_load(apps, "A", requests=1)


def _logged_worker_only_broken_bindings(log, parent_pid, apps):
    with open(log, "a") as handle:
        handle.write(f"{os.getpid()}\n")
    return _worker_only_broken_bindings(parent_pid, apps)


def _make_cell(key, bindings_factory):
    return ServeCell(
        key=key,
        system="GSLICE",
        system_factory=INFERENCE_SYSTEMS["GSLICE"],
        bindings_factory=bindings_factory,
    )


class TestRunCellsErrors:
    def _apps(self):
        return [
            inference_app("R50").with_quota(0.5, app_id="app1"),
            inference_app("R50").with_quota(0.5, app_id="app2"),
        ]

    def test_serial_failure_wrapped_with_cell_identity(self):
        cell = _make_cell(("loadA", "GSLICE"), _broken_bindings)
        with pytest.raises(CellExecutionError) as excinfo:
            run_cells([cell], jobs=1)
        assert excinfo.value.key == ("loadA", "GSLICE")
        assert excinfo.value.system == "GSLICE"
        assert "synthetic workload failure" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_parallel_failure_wrapped_with_cell_identity(self):
        apps = self._apps()
        good = _make_cell("good", partial(bind_load, apps, "A", 1))
        bad = _make_cell("bad", _broken_bindings)
        with pytest.raises(CellExecutionError) as excinfo:
            run_cells([good, bad], jobs=2)
        assert excinfo.value.key == "bad"

    def test_worker_failure_raises_after_one_execution(self, tmp_path):
        # A cell that raises inside a live pool worker is not re-run in
        # the parent, even when a re-run would succeed there: it raises
        # CellExecutionError after its one execution.
        apps = self._apps()
        log = tmp_path / "executions"
        cells = [
            _make_cell("ok", partial(bind_load, apps, "A", 1)),
            _make_cell(
                "flaky",
                partial(_logged_worker_only_broken_bindings, log, os.getpid(), apps),
            ),
        ]
        with pytest.raises(CellExecutionError) as excinfo:
            run_cells(cells, jobs=2, backend="pool")
        assert excinfo.value.key == "flaky"
        assert "worker environment casualty" in str(excinfo.value)
        assert len(log.read_text().splitlines()) == 1


class TestHostileEnv:
    """Malformed environment values fail with messages naming the var."""

    def test_malformed_repro_jobs_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS.*'many'"):
            resolve_jobs(None)

    def test_malformed_repro_jobs_describes_accepted_forms(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2.5")
        with pytest.raises(ValueError, match="integer"):
            resolve_jobs(None)

    def test_malformed_repro_backend_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "threads")
        with pytest.raises(ValueError, match="REPRO_BACKEND.*'threads'"):
            resolve_backend(None)

    def test_explicit_backend_error_unchanged(self, monkeypatch):
        # The historical message for a bad *argument* stays pinned; only
        # the env-sourced path names the variable.
        monkeypatch.setenv("REPRO_BACKEND", "inproc")
        with pytest.raises(ValueError, match="unknown backend 'threads'"):
            resolve_backend("threads")


class TestPoolEnvironmentKey:
    """The cached pool must track every env var workers freeze at fork.

    Forked workers snapshot ``os.environ`` at pool creation; systems
    built inside them resolve ``REPRO_FAULT_PLAN``/``REPRO_FAULT_SEED``
    from that snapshot.  With the pool keyed only on the worker count,
    a grid run after an environment flip silently reused fault-free
    workers — pool output diverged from serial.  Keyed on the full
    worker-frozen signature, the pool rebuilds and matches.
    """

    def _cells(self, count=2):
        apps = [
            inference_app("R50").with_quota(0.5, app_id="app1"),
            inference_app("R50").with_quota(0.5, app_id="app2"),
        ]
        bindings = partial(bind_load, apps, "A", 2)
        return [_make_cell(f"cell{index}", bindings) for index in range(count)]

    @pytest.fixture(autouse=True)
    def _fresh_pool(self, monkeypatch):
        from repro import parallel

        for key in parallel._POOL_ENV_KEYS:
            monkeypatch.delenv(key, raising=False)
        parallel._reset_pool()
        yield
        parallel._reset_pool()

    def test_fault_plan_flip_between_pooled_grids_matches_serial(
        self, monkeypatch
    ):
        # Warm the pool with fault-free workers first — the regression
        # needs live workers forked under the *old* environment.
        clean = run_cells(self._cells(), jobs=2, backend="pool")
        monkeypatch.setenv("REPRO_FAULT_PLAN", "failure=0.5,retries=1,seed=3")
        pooled = run_cells(self._cells(), jobs=2, backend="pool")
        serial = run_cells(self._cells(), jobs=1)
        for a, b in zip(pooled, serial):
            assert result_fingerprint(a) == result_fingerprint(b)
        # Teeth check: the plan visibly changed the output, so stale
        # fault-free workers could not have produced `pooled`.
        assert result_fingerprint(pooled[0]) != result_fingerprint(clean[0])

    def test_env_flip_rebuilds_the_pool(self, monkeypatch):
        from repro import parallel

        run_cells(self._cells(), jobs=2, backend="pool")
        generation = parallel._pool_generation
        monkeypatch.setenv("REPRO_FAULT_SEED", "7")
        run_cells(self._cells(), jobs=2, backend="pool")
        assert parallel._pool_generation == generation + 1

    def test_varied_grid_sizes_reuse_one_pool(self):
        # Keyed on resolved jobs (not min(jobs, cells)), alternating
        # small and large grids must not re-fork the pool per grid.
        from repro import parallel

        run_cells(self._cells(2), jobs=4, backend="pool")
        generation = parallel._pool_generation
        for count in (8, 2, 8, 2):
            run_cells(self._cells(count), jobs=4, backend="pool")
        assert parallel._pool_generation == generation

    def test_wide_pool_small_grid_output_unchanged(self):
        serial = run_cells(self._cells(2), jobs=1)
        pooled = run_cells(self._cells(2), jobs=8, backend="pool")
        for a, b in zip(serial, pooled):
            assert result_fingerprint(a) == result_fingerprint(b)


class TestGoldenFig13:
    def test_jobs1_output_matches_pre_overhaul_capture(self):
        """`python -m repro fig13 --jobs 1` (small) vs current main."""
        from repro.experiments.fig13_overall import run_inference

        data = run_inference(requests=3, loads=("A",), jobs=1)
        # Round-trip through JSON so float repr matches the capture.
        measured = json.loads(json.dumps(data, sort_keys=True))
        golden = json.loads(GOLDEN.read_text())
        assert measured == golden

    def test_parallel_matches_golden_too(self):
        from repro.experiments.fig13_overall import run_inference

        data = run_inference(requests=3, loads=("A",), jobs=2)
        measured = json.loads(json.dumps(data, sort_keys=True))
        golden = json.loads(GOLDEN.read_text())
        assert measured == golden
