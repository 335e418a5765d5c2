"""Kernel squad performance estimators (§4.4.2).

Two low-cost predictors estimate a squad's duration under a candidate
execution configuration:

* the **interference-free predictor** (Eq. 1) for strictly
  spatially-isolated configurations — the squad lasts as long as the
  longest per-request stack of restricted-kernel durations::

      t̂ = max_j  sum_i t[n_j%][k_i^j]

* the **workload-equivalence predictor** (Eq. 2) for the unrestricted
  configuration — overlapping kernels are modelled wave by wave
  (breadth-first over requests) as sequential execution in which each
  kernel occupies all the SMs the wave's kernels jointly activate::

      t̂ = sum_i sum_j t[ min(100%, sum_j d_i^j%) ][k_i^j]

Memcpy durations are included in both sums whether or not they overlap
at runtime; the over-estimate is similar across configurations so it
rarely flips the argmin (§4.4.2).

The estimators are numpy-vectorized over each request's kernel window
(and, via :meth:`AppProfile.stack_costs`, over every partition size at
once for the configuration search).  Their per-kernel Python loop
references live in ``tests/config_oracle.py``.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..gpusim import interference
from .profiler import AppProfile
from .squad import KernelSquad


def interference_free_estimate(
    squad: KernelSquad,
    profiles: Mapping[str, AppProfile],
    partitions: Mapping[str, int],
) -> float:
    """Eq. 1: max over requests of the stacked restricted durations."""
    longest = 0.0
    for app_id, entry in squad.entries.items():
        profile = profiles[app_id]
        partition = partitions[app_id]
        cols = np.asarray(entry.kernel_indices, dtype=int)
        if cols.size == 0:
            continue
        stack = float(
            profile.durations[partition - 1, cols].sum() + profile.gaps[cols].sum()
        )
        longest = max(longest, stack)
    return longest


def workload_equivalence_estimate(
    squad: KernelSquad,
    profiles: Mapping[str, AppProfile],
) -> float:
    """Eq. 2: breadth-first wave model for unrestricted execution."""
    entries = list(squad.entries.values())
    if not entries:
        return 0.0
    depth = max(entry.count for entry in entries)
    if depth == 0:
        return 0.0

    # Pad each request's kernel window to the squad depth: rows of
    # per-wave demand / gap, masked where the request has no kernel.
    n_entries = len(entries)
    mask = np.zeros((n_entries, depth), dtype=bool)
    demand = np.zeros((n_entries, depth), dtype=float)
    gaps = np.zeros((n_entries, depth), dtype=float)
    index_rows = []
    for row, entry in enumerate(entries):
        cols = np.asarray(entry.kernel_indices, dtype=int)
        index_rows.append(cols)
        count = cols.size
        if count == 0:
            continue
        profile = profiles[entry.app_id]
        mask[row, :count] = True
        demand[row, :count] = profile.sm_demand[cols]
        gaps[row, :count] = profile.gaps[cols]

    # Per wave: every member runs at the wave's combined activated SMs.
    active = np.minimum(1.0, demand.sum(axis=0))
    total = 0.0
    for row, entry in enumerate(entries):
        cols = index_rows[row]
        if cols.size == 0:
            continue
        profile = profiles[entry.app_id]
        total += float(
            profile.durations_at_fractions(active[: cols.size], cols).sum()
        )
    # Dispatch gaps overlap across requests in a wave; only the longest
    # gap of the wave extends the squad's critical path.
    members = mask.sum(axis=0)
    populated = members > 0
    if populated.any():
        wave_gap = np.where(mask, gaps, -np.inf).max(axis=0)
        total += float(
            (wave_gap[populated] / np.maximum(1, members[populated])).sum()
        )
    return total


def concurrent_wave_estimate(
    squad: KernelSquad,
    profiles: Mapping[str, AppProfile],
) -> float:
    """Simulator-calibrated NSP estimator (independent-flow model).

    Eq. 2 models unrestricted overlap as *serialized at full width* —
    accurate for the saturating kernels of the authors' testbed, but an
    over-estimate when kernels' combined demand fits the GPU and the
    hardware genuinely runs them in parallel.  In this reproduction's
    simulator each request's queue flows independently while the
    hardware shares SMs max-min fairly, so the squad lasts as long as
    the *slowest per-request stack*, with each kernel running at its
    congestion-scaled share plus the scattered-interference slowdown.
    This is the determiner's NSP estimator; Eq. 2 remains the cluster
    placer's and the quota-proportional ablation's.
    """
    entries = list(squad.entries.values())
    if not entries:
        return 0.0

    # Squad-average congestion: duration-weighted mean SM demand and
    # memory intensity per request, summed over co-running requests.
    per_app = []
    for entry in entries:
        profile = profiles[entry.app_id]
        cols = np.asarray(entry.kernel_indices, dtype=int)
        if cols.size == 0:
            per_app.append((cols, profile, 0.0, 0.0))
            continue
        weights = profile.durations[-1, cols]
        weight_sum = float(weights.sum())
        if weight_sum <= 0:
            per_app.append((cols, profile, 0.0, 0.0))
        else:
            mean_d = float(weights @ profile.sm_demand[cols]) / weight_sum
            mean_m = float(weights @ profile.mem_intensity[cols]) / weight_sum
            per_app.append((cols, profile, mean_d, mean_m))

    total_demand = sum(d for _, _, d, _ in per_app)
    total_intensity = sum(m for _, _, _, m in per_app)
    congestion = max(1.0, total_demand)
    concurrent = len(per_app) > 1

    longest = 0.0
    for cols, profile, _, mean_m in per_app:
        if cols.size == 0:
            continue
        demand = profile.sm_demand[cols]
        durations = profile.durations_at_fractions(demand / congestion, cols)
        if concurrent:
            pressure = min(1.0, max(0.0, total_intensity - mean_m))
            slowdown = 1.0 + interference.KAPPA_UNRESTRICTED * (
                pressure ** interference.GAMMA
            ) * np.minimum(1.0, profile.mem_intensity[cols])
            durations = durations * np.minimum(interference.MAX_SLOWDOWN, slowdown)
        stack = float(durations.sum() + profile.gaps[cols].sum())
        longest = max(longest, stack)
    return longest
