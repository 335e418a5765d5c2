"""The exhaustive configuration search, kept as the determiner's oracle.

Everything here is a per-kernel Python loop with none of the
determiner's machinery:

* :func:`compositions` enumerates the strict spatial splits of ``N``
  partitions among ``K`` requests in lexicographic order;
* :func:`exhaustive_spatial` scores every split with Eq. 1 through
  ``AppProfile.step_cost`` and keeps the (makespan, total stack time)
  argmin, the first split in order winning ties;
* :func:`determine` is the whole decision for an enumerable space: that
  scan against the unrestricted estimate, plus the Semi-SP rears;
* the three ``*_scalar`` estimators are the loops the vectorized
  predictors of ``repro.core.predictors`` must match.

Tests compare ``ExecutionConfigDeterminer`` and the predictors to it.
"""

import math

from repro.core.configurator import ExecutionConfig
from repro.gpusim.interference import GAMMA, KAPPA_UNRESTRICTED, MAX_SLOWDOWN


def compositions(total, parts):
    """All ways to split ``total`` units into ``parts`` positive ints;
    nothing when ``total < parts`` or ``parts <= 0``."""
    if parts <= 0 or total < parts:
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def _stack(profile, partition, kernel_indices):
    stack = 0.0
    for index in kernel_indices:
        stack += profile.step_cost(partition, index)
    return stack


def exhaustive_spatial(squad, profiles, app_ids, n):
    """The best strict spatial split by scanning every composition, or
    None when the space is empty (more requests than partitions)."""
    best_split = None
    best_score = (math.inf, math.inf)
    for split in compositions(n, len(app_ids)):
        longest = total = 0.0
        for app_id, parts in zip(app_ids, split):
            stack = _stack(profiles[app_id], parts, squad.entry(app_id).kernel_indices)
            longest = max(longest, stack)
            total += stack
        score = (longest, total)
        if score < best_score:
            best_score = score
            best_split = split
    if best_split is None:
        return None
    return ExecutionConfig(
        partitions=dict(zip(app_ids, best_split)),
        predicted_duration_us=best_score[0],
    )


def rear_counts(squad, profiles, partitions):
    """Per request, the kernels predicted to start once the shortest
    co-runner stack has drained (adaptive Semi-SP)."""
    starts = {}
    stacks = {}
    for app_id, entry in squad.entries.items():
        end = 0.0
        starts[app_id] = []
        for index in entry.kernel_indices:
            cost = profiles[app_id].step_cost(partitions[app_id], index)
            end += cost
            starts[app_id].append(end - cost)
        stacks[app_id] = end
    t_min = min(stacks.values())
    return {
        app_id: sum(1 for start in app_starts if start >= t_min - 1e-9)
        for app_id, app_starts in starts.items()
    }


def determine(squad, profiles, config):
    """The determiner's decision for a squad: the unrestricted
    concurrent-wave estimate against a scan of every spatial split."""
    nsp = concurrent_wave_estimate_scalar(squad, profiles)
    app_ids = squad.app_ids
    best = None
    if len(app_ids) > 1:
        best = exhaustive_spatial(squad, profiles, app_ids, config.num_partitions)
    if best is None or best.predicted_duration_us >= nsp:
        return ExecutionConfig(partitions=None, predicted_duration_us=nsp)
    if config.semi_sp_mode != "adaptive":
        return best
    return ExecutionConfig(
        partitions=best.partitions,
        predicted_duration_us=best.predicted_duration_us,
        rear_counts=rear_counts(squad, profiles, best.partitions),
    )


def interference_free_estimate_scalar(squad, profiles, partitions):
    """Eq. 1: the longest per-request stack of restricted durations."""
    longest = 0.0
    for app_id, entry in squad.entries.items():
        stack = _stack(profiles[app_id], partitions[app_id], entry.kernel_indices)
        longest = max(longest, stack)
    return longest


def workload_equivalence_estimate_scalar(squad, profiles):
    """Eq. 2, one breadth-first wave at a time."""
    entries = list(squad.entries.values())
    if not entries:
        return 0.0
    depth = max(entry.count for entry in entries)
    total = 0.0
    for wave in range(depth):
        wave_members = []
        combined_demand = 0.0
        for entry in entries:
            if wave < entry.count:
                index = entry.kernel_indices[wave]
                profile = profiles[entry.app_id]
                wave_members.append((profile, index))
                combined_demand += float(profile.sm_demand[index])
        active = min(1.0, combined_demand)
        for profile, index in wave_members:
            total += profile.duration_at_fraction(active, index)
        if wave_members:
            total += max(float(p.gaps[i]) for p, i in wave_members) / max(
                1, len(wave_members)
            )
    return total


def concurrent_wave_estimate_scalar(squad, profiles):
    """The simulator-calibrated NSP estimator, one kernel at a time."""
    entries = list(squad.entries.values())
    if not entries:
        return 0.0

    per_app = []
    for entry in entries:
        profile = profiles[entry.app_id]
        weights = 0.0
        demand_acc = 0.0
        intensity_acc = 0.0
        for index in entry.kernel_indices:
            w = float(profile.durations[-1, index])
            weights += w
            demand_acc += w * float(profile.sm_demand[index])
            intensity_acc += w * float(profile.mem_intensity[index])
        if weights <= 0:
            per_app.append((entry, profile, 0.0, 0.0))
        else:
            per_app.append(
                (entry, profile, demand_acc / weights, intensity_acc / weights)
            )

    total_demand = sum(d for _, _, d, _ in per_app)
    total_intensity = sum(m for _, _, _, m in per_app)
    congestion = max(1.0, total_demand)
    concurrent = len(per_app) > 1

    longest = 0.0
    for entry, profile, _, mean_m in per_app:
        stack = 0.0
        for index in entry.kernel_indices:
            demand = float(profile.sm_demand[index])
            share = demand / congestion
            duration = profile.duration_at_fraction(share, index)
            if concurrent:
                pressure = min(1.0, max(0.0, total_intensity - mean_m))
                slowdown = 1.0 + KAPPA_UNRESTRICTED * (
                    pressure ** GAMMA
                ) * min(1.0, float(profile.mem_intensity[index]))
                duration *= min(MAX_SLOWDOWN, slowdown)
            stack += duration + float(profile.gaps[index])
        longest = max(longest, stack)
    return longest
