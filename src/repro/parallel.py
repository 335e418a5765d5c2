"""Process-parallel serving harness: independent simulations, one pool.

The paper's evaluation — and the §4.2.2 multi-GPU cluster — decompose
into *independent* simulations: each (system, workload-binding) cell,
and each GPU of a cluster, runs on its own private engine with no
shared state.  This module owns the machinery that fans such cells out
over a ``ProcessPoolExecutor`` while keeping the output byte-identical
to a serial run:

* every cell is self-contained — its bindings factory rebuilds the
  workload from its own seeds inside the worker;
* results are collected in submission order, never completion order;
* a cached pool is reused across calls (a report run executes dozens
  of grids back to back, and forking per grid would dominate small
  ones).

``jobs`` semantics (shared by the CLI, the experiment runners, and the
cluster controller): ``None`` falls back to the ``REPRO_JOBS``
environment variable and then to 1 (serial); ``0`` or a negative count
means "use every core".

``backend`` selects *how* a multi-cell grid executes once ``jobs``
says it may parallelise: ``"pool"`` is the process pool, ``"inproc"``
runs every cell in this process (no fork, no pickle — the right call
when the grid is smaller than the pool tax), and ``"auto"`` (the
default, also via ``REPRO_BACKEND``) keeps the historical rule: pool
whenever ``jobs > 1`` and there is more than one cell.  Results are
byte-identical across all three — cells rebuild their workloads from
their own seeds wherever they run.
"""

from __future__ import annotations

import os
import pickle
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, List, Optional, Sequence, Tuple

from .baselines.base import SharingSystem
from .metrics.stats import ServingResult
from .workloads.suite import WorkloadBinding


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker-count policy shared by the CLI and the runners.

    ``None`` falls back to the ``REPRO_JOBS`` environment variable and
    then to 1 (serial — today's behaviour); ``0`` or a negative count
    means "use every core".
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"invalid REPRO_JOBS value {env!r}; expected an "
                    "integer (1 = serial, 0 or negative = all cores)"
                ) from None
        else:
            jobs = 1
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


BACKENDS = ("auto", "inproc", "pool")


def resolve_backend(backend: Optional[str] = None) -> str:
    """Execution-backend policy: ``None`` → ``REPRO_BACKEND`` → auto.

    ``"inproc"`` runs every cell in the calling process (no fork, no
    pickle round-trip), ``"pool"`` uses the shared process pool, and
    ``"auto"`` defers to the historical jobs/cell-count rule.
    """
    from_env = backend is None
    if backend is None:
        backend = os.environ.get("REPRO_BACKEND", "").strip() or "auto"
    backend = backend.lower()
    if backend not in BACKENDS:
        source = "REPRO_BACKEND value" if from_env else "backend"
        raise ValueError(
            f"unknown {source} {backend!r}; expected one of {BACKENDS}"
        )
    return backend


@dataclass(frozen=True)
class ServeCell:
    """One independent (system, workload-binding) simulation.

    Cells are shipped to worker processes, so every field must pickle:
    use ``functools.partial`` over module-level functions for the
    bindings factory, never a closure or lambda.
    """

    key: Hashable
    system: str
    system_factory: Callable[[], SharingSystem]
    bindings_factory: Callable[[], Sequence[WorkloadBinding]]
    # Extra keyword arguments for the system factory (picklable).
    system_kwargs: dict = field(default_factory=dict)

    def execute(self) -> ServingResult:
        system = self.system_factory(**self.system_kwargs)
        return system.serve(self.bindings_factory())


def _execute_cell(cell: ServeCell) -> Tuple[ServingResult, float]:
    # Module-level trampoline so ProcessPoolExecutor can pickle it.
    # Workers return (result, wall seconds) so the parent can ingest
    # each cell into the results catalog with its true simulation cost
    # — the worker-side wall time, not the parent's future-wait time.
    started = time.perf_counter()
    result = cell.execute()
    return result, time.perf_counter() - started


class CellExecutionError(RuntimeError):
    """A cell failed; carries which (system, binding) it was.

    A bare worker traceback loses the grid coordinates that make a
    failure debuggable; this wrapper pins them on.
    """

    def __init__(self, cell: ServeCell, cause: BaseException):
        self.key = cell.key
        self.system = cell.system
        super().__init__(
            f"cell {cell.key!r} (system={cell.system}) failed: "
            f"{type(cause).__name__}: {cause}"
        )


# One cached worker pool, reused across run_cells calls: a report run
# executes dozens of cell grids back to back, and forking a fresh pool
# for each would dominate small grids.  Keyed by the worker count plus
# every environment variable forked workers freeze at creation —
# workers that outlive an environment change would otherwise silently
# run cells under the old fault plan, trace target, or catalog path,
# diverging from the serial path (scenario sweeps flip these between
# back-to-back grids).
_POOL_ENV_KEYS = (
    "REPRO_FAULT_PLAN",
    "REPRO_FAULT_SEED",
    "REPRO_TRACE",
    "REPRO_CATALOG",
)
_pool: Optional[ProcessPoolExecutor] = None
_pool_key: Optional[tuple] = None
# Counts pool constructions (never reset); tests assert grids of
# varying size reuse one pool instead of re-forking per grid.
_pool_generation = 0


def _pool_env_signature() -> tuple:
    return tuple(os.environ.get(key, "") for key in _POOL_ENV_KEYS)


def _get_pool(workers: int) -> ProcessPoolExecutor:
    global _pool, _pool_key, _pool_generation
    key = (workers, _pool_env_signature())
    if _pool is not None and _pool_key == key:
        return _pool
    if _pool is not None:
        _pool.shutdown(wait=False)
    _pool = ProcessPoolExecutor(max_workers=workers)
    _pool_key = key
    _pool_generation += 1
    return _pool


def _reset_pool() -> None:
    """Drop a broken cached pool so the next run_cells starts fresh."""
    global _pool, _pool_key
    if _pool is not None:
        _pool.shutdown(wait=False)
    _pool = None
    _pool_key = None


def _execute_serial(cell: ServeCell) -> Tuple[ServingResult, float]:
    started = time.perf_counter()
    try:
        result = cell.execute()
    except Exception as exc:
        raise CellExecutionError(cell, exc) from exc
    return result, time.perf_counter() - started


def _caller_experiment(depth: int = 2) -> str:
    """Short module name of the frame calling into the harness.

    Used as the catalog's default experiment label so every per-figure
    runner gets a sensible name (``fig13_overall``, ``resilience``, …)
    without threading a parameter through each module.
    """
    try:
        name = sys._getframe(depth).f_globals.get("__name__", "")
    except ValueError:
        name = ""
    return name.rsplit(".", 1)[-1] or "adhoc"


def cells_are_picklable(cells: Sequence[ServeCell]) -> bool:
    """Whether ``cells`` can be shipped to pool workers at all.

    Callers that build cells from objects handed to them (the cluster
    controller receives already-constructed bindings) use this to fall
    back to the serial path up front instead of paying one failed
    round-trip per cell.
    """
    try:
        pickle.dumps(list(cells))
    except Exception:
        return False
    return True


def run_cells(
    cells: Iterable[ServeCell],
    jobs: Optional[int] = None,
    experiment: Optional[str] = None,
    backend: Optional[str] = None,
) -> List[ServingResult]:
    """Execute every cell; results align with the input order.

    With ``jobs > 1`` cells run across a process pool; per-cell futures
    are collected in submission order, and each cell reconstructs its
    own workload from scratch inside the worker, so the output is
    byte-identical to the serial path.  ``backend="inproc"`` keeps the
    whole grid in this process regardless of ``jobs`` — the fast path
    when the grid is small enough that pool submit+pickle would
    dominate — while ``"pool"``/``"auto"`` follow the jobs rule.

    A failing cell raises :class:`CellExecutionError` naming its grid
    coordinates, after its one execution: a cell that raised inside a
    live worker is not run again (a livelocked cell would pay its event
    budget twice).  Only when the pool itself breaks (a worker killed,
    out of memory) are the cells it lost re-run serially in this
    process.

    Every completed grid is recorded into the sqlite results catalog
    (``REPRO_CATALOG``; default ``results/catalog.sqlite``, ``off``
    disables) under ``experiment`` — defaulting to the calling module's
    name — with per-cell worker wall times; see docs/results-catalog.md.
    """
    cells = list(cells)
    if experiment is None:
        experiment = _caller_experiment(2)
    jobs = resolve_jobs(jobs)
    backend = resolve_backend(backend)
    outcomes: List[Tuple[ServingResult, float]]
    broken = False
    if backend == "inproc" or jobs <= 1 or len(cells) <= 1:
        outcomes = [_execute_serial(cell) for cell in cells]
    else:
        # Key the pool on the resolved job count, not min(jobs, cells):
        # clamping to the grid size re-forked the whole pool whenever
        # consecutive grids had different cell counts below ``jobs``.
        # ProcessPoolExecutor spawns workers on demand (and in-flight
        # submissions are bounded by its own queue), so a small grid on
        # a wide pool touches only as many workers as it has cells.
        pool = _get_pool(jobs)
        try:
            futures = [pool.submit(_execute_cell, cell) for cell in cells]
        except RuntimeError:
            # Pool already shut down (e.g. interpreter teardown races).
            _reset_pool()
            futures = None
        if futures is None:
            outcomes = [_execute_serial(cell) for cell in cells]
        else:
            outcomes = []
            for cell, future in zip(cells, futures):
                try:
                    outcomes.append(future.result())
                except BrokenProcessPool:
                    # The pool is gone (worker killed, fork bomb, OOM).
                    # All remaining futures will fail the same way:
                    # re-run each affected cell serially instead of
                    # losing the whole grid.
                    broken = True
                    outcomes.append(_execute_serial(cell))
                except Exception as exc:
                    # The cell itself raised in a live worker: running
                    # it again would fail the same way, at the same cost.
                    raise CellExecutionError(cell, exc) from exc
            if broken:
                _reset_pool()
    results = [result for result, _ in outcomes]
    from .catalog.ingest import ingest_cells_safe

    ingest_cells_safe(
        cells,
        results,
        [wall for _, wall in outcomes],
        experiment=experiment,
        jobs=jobs,
    )
    return results
