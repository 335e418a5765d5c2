"""Offline profiler (§4.2): per-kernel statistics at every partition size.

For an application provisioned ``n%`` of the GPU the profiler records:

* ``T[n%]``     — isolated request latency on an MPS partition of n%;
* ``t[n%][k]``  — duration of kernel *k* at n% SMs;
* ``tau[n%][k]``— elapsed time from request start to the end of *k*;
* ``d%[k]``     — the kernel's maximum active SM usage.

The paper measures these with CUDA events over ``N`` solo runs (one per
partition size).  Our simulator's solo-run kernel duration at a
partition is exactly ``KernelSpec.duration_at``, so the profile can be
computed analytically; :func:`profile_via_simulation` cross-checks that
the analytic profile matches an actual simulated solo run.

Profiling happens once per process, as the paper profiles once per
deployment: a module-level table maps an app's *content* — its name,
kernel trace, memory footprint and the partition grid — to its
:class:`AppProfile`, and :meth:`OfflineProfiler.profile` computes a
profile only when that table misses.  The key is the kernel trace, not
the name, because rescaled copies (Fig. 19(c)) keep the name while
changing the kernels.  Profiles are
analytic, so profiling a trace again would give the same tables: every
profiler, and so every per-GPU runtime of a cluster run, shares the
table.  A second, identity-keyed index in front of it spares hashing a
trace that was seen before.  Each profile also carries a ``digest`` of
its tables, which the squad signature and the cluster interference
memo use to tell same-named apps apart.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..apps.application import Application
from ..gpusim.device import GPUSpec
from .config import BlessConfig, DEFAULT_CONFIG


@dataclass
class AppProfile:
    """Profiled data of one application over all partition sizes."""

    app_name: str
    num_partitions: int
    # durations[p][k]: duration of kernel k at partition index p (1-based
    # index stored at p-1).
    durations: np.ndarray
    # elapsed[p][k]: time from request start to end of kernel k,
    # including the host dispatch gaps between kernels.
    elapsed: np.ndarray
    # sm_demand[k]: the kernel's d%.
    sm_demand: np.ndarray
    # gaps[k]: host dispatch gap preceding kernel k.
    gaps: np.ndarray
    # mem_intensity[k]: bandwidth appetite, used by the wave estimator.
    mem_intensity: np.ndarray
    memory_mb: int
    # Simulated profiling cost (one full run + N partitioned runs).
    profiling_cost_us: float = 0.0
    # Content digest of the tables the estimators read.  Two profiles
    # with equal digests make every decision alike, so memo keys carry
    # it next to ``app_name`` to tell same-named apps apart.
    digest: str = field(init=False, compare=False)

    def __post_init__(self) -> None:
        tables = (
            self.durations, self.elapsed, self.sm_demand, self.gaps, self.mem_intensity
        )
        hasher = hashlib.blake2b(digest_size=16)
        for array in tables:
            # Frozen: the process-wide table shares this profile with
            # every later run, and the digest must keep describing it.
            array.setflags(write=False)
            hasher.update(np.ascontiguousarray(array, dtype=float).tobytes())
        self.digest = hasher.hexdigest()

    @property
    def num_kernels(self) -> int:
        return self.durations.shape[1]

    def duration(self, partition: int, kernel: int) -> float:
        """``t[n%][k]`` with ``partition`` 1-based."""
        return float(self.durations[partition - 1, kernel])

    def step_cost(self, partition: int, kernel: int) -> float:
        """Kernel duration plus its preceding dispatch gap — the time
        the kernel occupies on its request's critical path."""
        return float(self.durations[partition - 1, kernel] + self.gaps[kernel])

    def tau(self, partition: int, kernel: int) -> float:
        """``tau[n%][k]`` with ``partition`` 1-based."""
        return float(self.elapsed[partition - 1, kernel])

    def iso_latency(self, partition: int) -> float:
        """``T[n%]`` — isolated latency at a partition size."""
        return float(self.elapsed[partition - 1, -1])

    def duration_at_fraction(self, fraction: float, kernel: int) -> float:
        """Duration at an arbitrary SM fraction, interpolated over the
        profiled partition grid (§4.4.2: 'the duration of a kernel using
        the desired number of SM is interpolated')."""
        grid = np.arange(1, self.num_partitions + 1) / self.num_partitions
        fraction = min(1.0, max(grid[0], fraction))
        return float(np.interp(fraction, grid, self.durations[:, kernel]))

    def durations_at_fractions(
        self, fractions: np.ndarray, kernels: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`duration_at_fraction`.

        ``fractions[i]`` is the SM fraction for kernel ``kernels[i]``;
        returns the interpolated durations as one array.  The profiled
        grid is uniform (``p / N``), so the piecewise-linear lookup is a
        direct index-and-lerp into the duration matrix.
        """
        n = self.num_partitions
        frac = np.clip(np.asarray(fractions, dtype=float), 1.0 / n, 1.0)
        position = frac * n - 1.0  # float row index into durations
        low = np.floor(position).astype(int)
        high = np.minimum(low + 1, n - 1)
        weight = position - low
        cols = np.asarray(kernels, dtype=int)
        base = self.durations[low, cols]
        return base + weight * (self.durations[high, cols] - base)

    def stack_costs(self, kernels: Sequence[int]) -> np.ndarray:
        """Per-partition critical-path cost of a kernel-index stack.

        Returns an ``(N,)`` array whose ``p-1``-th element is the Eq. 1
        stack term ``sum_i t[p][k_i] + gap[k_i]`` — every partition size
        at once, which is what the vectorized configuration search
        consumes as one row of its ``(K, N)`` cost matrix.
        """
        cols = np.asarray(list(kernels), dtype=int)
        if cols.size == 0:
            return np.zeros(self.num_partitions, dtype=float)
        return self.durations[:, cols].sum(axis=1) + float(self.gaps[cols].sum())

    def mean_kernel_duration(self) -> float:
        return float(self.durations[-1].mean())


# (app name, kernel trace, memory MB, partitions) -> profile.
# KernelSpec is frozen, so the trace tuple hashes by value; the profile
# computation reads no GPUSpec field, so the spec stays out of the key.
_PROFILES: Dict[tuple, AppProfile] = {}

# Identity index into _PROFILES: (id of the kernel list, app name,
# memory MB, partitions) -> (that list, its profile).  The list is
# pinned in the entry, so its id is never reused and a different trace
# always misses; a hit skips hashing the trace.
_BY_IDENTITY: Dict[Tuple[int, str, int, int], Tuple[list, AppProfile]] = {}


class OfflineProfiler:
    """Profiles applications at deployment time (§4.2.1)."""

    def __init__(self, config: BlessConfig = DEFAULT_CONFIG):
        self.config = config

    def profile(self, app: Application) -> AppProfile:
        """Profile ``app`` at every partition size.

        Computed once per process for each distinct kernel trace (the
        module-level table); a kernel list seen before is found by
        identity without hashing the trace again.
        """
        kernels = app.kernels
        n = self.config.num_partitions
        fast_key = (id(kernels), app.name, app.memory_mb, n)
        cached = _BY_IDENTITY.get(fast_key)
        if cached is not None:
            return cached[1]
        key = (app.name, tuple(kernels), app.memory_mb, n)
        profile = _PROFILES.get(key)
        if profile is None:
            profile = self._compute(app, n)
            _PROFILES[key] = profile
        _BY_IDENTITY[fast_key] = (kernels, profile)
        return profile

    def _compute(self, app: Application, n: int) -> AppProfile:
        kernels = app.kernels
        durations = np.empty((n, len(kernels)), dtype=float)
        for p in range(1, n + 1):
            fraction = p / n
            durations[p - 1] = [k.duration_at(fraction) for k in kernels]
        gaps = np.array([k.dispatch_gap_us for k in kernels], dtype=float)
        elapsed = (durations + gaps[None, :]).cumsum(axis=1)
        demand = np.array([k.sm_demand for k in kernels], dtype=float)
        intensity = np.array([k.mem_intensity for k in kernels], dtype=float)

        # One full run to get overall performance + N partitioned runs
        # (the paper's O(MN) profiling procedure).
        cost = float(elapsed[-1, -1]) + float(elapsed[:, -1].sum())
        return AppProfile(
            app_name=app.name,
            num_partitions=n,
            durations=durations,
            elapsed=elapsed,
            sm_demand=demand,
            gaps=gaps,
            mem_intensity=intensity,
            memory_mb=app.memory_mb,
            profiling_cost_us=cost,
        )


def profile_via_simulation(
    app: Application,
    partition: int,
    config: BlessConfig = DEFAULT_CONFIG,
    gpu_spec: Optional[GPUSpec] = None,
) -> List[float]:
    """Measure kernel durations of a solo run on the simulator.

    Cross-validation helper: launches the app alone on an MPS partition
    and returns the per-kernel measured durations, which must agree with
    the analytic profile (the simulator uses the same scaling law).
    """
    from ..gpusim.context import ContextRegistry
    from ..gpusim.device import GPUDevice
    from ..gpusim.engine import SimEngine
    from ..gpusim.kernel import KernelInstance

    spec = gpu_spec or GPUSpec()
    engine = SimEngine(device=GPUDevice(spec))
    registry = ContextRegistry(engine.device)
    fraction = config.partition_fraction(partition)
    context = registry.create(app.app_id, fraction, charge_memory=False)
    queue = engine.create_queue(context)
    measured: List[float] = []

    def record(kernel: KernelInstance) -> None:
        measured.append(kernel.finish_time - kernel.start_time)

    for index in range(len(app.kernels)):
        instance = KernelInstance(spec=app.kernels[index], app_id=app.app_id, seq=index)
        engine.launch(instance, queue, on_finish=record)
    engine.run()
    return measured
