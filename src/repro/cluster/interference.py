"""Contention-aware placement: interference estimates and cost model.

The §4.2.2 central controller is supposed to use "the memory
requirement and profiled kernel information to decide which specific
GPU to place applications **to avoid conflict**" — but the quota-fit
policies of :mod:`.placement` never look at *which* applications
interfere.  The Eq. 2 workload-equivalence predictor
(:func:`repro.core.predictors.workload_equivalence_estimate`) already
estimates exactly that signal: co-located kernels serialize wave by
wave at the SMs they jointly activate, so the predicted squad duration
of a co-resident group is the cross-app slowdown every member suffers.

This module turns that predictor into a placement objective, following
the contention-aware GPU partitioning line of work (PAPERS.md):

* :class:`InterferenceEstimator` — Eq. 2 joint-duration estimates over
  an application group's full kernel windows, memoized on **profile
  signatures** (``(model, kernel count, profile digest)``) so a
  64-GPU sweep re-scores thousands of candidate groups against a
  handful of distinct model combinations;
* :class:`PlacementCostModel` — scores one GPU's co-resident group as
  the sum of every member's predicted **excess completion time** over
  solo, in microseconds (optionally SLO-class-weighted so
  latency-critical tenants dominate the objective), and a full
  assignment as the sum over GPUs;
* :func:`solve_placement` — deterministic greedy construction (with a
  complete backtracking search behind it for batches the greedy
  orders cannot pack) plus bounded local-search refinement (move and
  swap moves); the test suite checks it against an exhaustive search
  on small clusters (``tests/placement_oracle.py``).

The solver is pure (it never touches :class:`~.placement.GPUSlot`
state); :class:`~.placement.ClusterPlacer` drives it when its policy is
``CONTENTION_AWARE`` and commits the returned assignment.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from ..apps.application import Application, Request
from ..core.predictors import workload_equivalence_estimate
from ..core.profiler import OfflineProfiler
from ..core.squad import KernelSquad

#: SLO-class weights of the cost model: a latency-critical
#: app's predicted slowdown counts this much more than a best-effort
#: one, so the solver keeps LC tenants on the quieter GPUs.  Class
#: names duck-type against ``repro.gateway.SLOSpec.slo_class`` — the
#: cluster layer carries no gateway import.
CLASS_WEIGHTS: Mapping[str, float] = {
    "latency_critical": 4.0,
    "best_effort": 1.0,
}

#: Local-search budget: the refinement loop applies at most
#: ``LOCAL_SEARCH_ROUNDS * num_apps`` improving moves before stopping
#: (each move strictly reduces the assignment cost, so termination is
#: guaranteed anyway; the bound caps worst-case work on big clusters).
LOCAL_SEARCH_ROUNDS = 4

#: Budget of the backtracking search behind the greedy constructions,
#: in slot tries: it gives up (no assignment) after this many, so a
#: large batch that packs badly cannot stall placement.  A batch of
#: up to 8 apps on up to 3 GPUs needs fewer than 10,000 tries even
#: unpruned, so there the search is complete.
COMPLETE_SEARCH_TRIES = 50_000

#: Cost deltas below this are ties: local search only takes strictly
#: improving moves, and tie-breaks fall through to deterministic keys.
#: Costs are microseconds, so sub-microsecond deltas are float noise.
COST_EPS = 1e-6

#: A feasibility oracle: may ``candidate`` join ``group`` on one GPU?
FeasibilityCheck = Callable[[Sequence[Application], Application], bool]


class InterferenceEstimator:
    """Eq. 2 joint-duration estimates for co-resident application groups.

    ``joint_us(group)`` predicts how long one request of every group
    member takes when the group shares a GPU unrestricted — the Eq. 2
    wave model serializes the members' kernels at their jointly
    activated SM width, so the estimate grows with every co-runner's
    work and shrinks with parallel speedup at wider activation.  The
    per-app slowdown ``joint(group) / joint({app})`` is the predicted
    interference the placement cost model minimizes.

    Estimates are memoized on the group's sorted **profile signatures**
    — ``(model name, kernel count, profile digest)`` per member, the
    digest telling same-named traces apart — so groups of the same
    models (regardless of app_id or quota, which Eq. 2 does not read)
    share one computation.
    """

    def __init__(self):
        self.profiler = OfflineProfiler()
        self._joint_cache: Dict[Hashable, float] = {}
        self.hits = 0
        self.misses = 0

    def profile_signature(self, app: Application) -> Tuple[str, int, str]:
        """The memoization term one application contributes."""
        profile = self.profiler.profile(app)
        return (profile.app_name, profile.num_kernels, profile.digest)

    def joint_us(self, group: Sequence[Application]) -> float:
        """Eq. 2 estimate of one full request-wave of ``group``."""
        if not group:
            return 0.0
        key = tuple(sorted(self.profile_signature(app) for app in group))
        cached = self._joint_cache.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        squad = KernelSquad()
        profiles = {}
        for index, app in enumerate(group):
            # Synthetic full-window squad: one request per member over
            # its entire kernel trace.  request_id is pinned so the
            # estimator never consumes the process-global request
            # counter (placement must not perturb serving-run ids),
            # and entry ids are position-unique so a group may legally
            # contain two deployments of one app_id.
            entry_id = f"{app.app_id}#{index}"
            request = Request(
                app=app.with_quota(app.quota, app_id=entry_id),
                arrival_time=0.0,
                request_id=index,
            )
            squad.add(request, range(app.num_kernels))
            profiles[entry_id] = self.profiler.profile(app)
        estimate = float(workload_equivalence_estimate(squad, profiles))
        self._joint_cache[key] = estimate
        return estimate

    def solo_us(self, app: Application) -> float:
        """The singleton estimate the slowdown ratio is taken against."""
        return self.joint_us([app])

    def slowdown(
        self, app: Application, co_resident: Sequence[Application]
    ) -> float:
        """Predicted slowdown of ``app`` next to ``co_resident``."""
        solo = self.solo_us(app)
        if solo <= 0.0:
            return 1.0
        return self.joint_us([app, *co_resident]) / solo

    def matrix(
        self, apps: Sequence[Application]
    ) -> Dict[Tuple[str, str], float]:
        """The pairwise interference matrix over ``apps``.

        ``matrix[(a, b)]`` is the predicted slowdown of ``a`` when
        co-located with ``b`` alone — asymmetric by construction (a
        light app suffers more next to a heavy one than vice versa).
        """
        out: Dict[Tuple[str, str], float] = {}
        for a in apps:
            for b in apps:
                if a.app_id == b.app_id:
                    continue
                out[(a.app_id, b.app_id)] = self.slowdown(a, [b])
        return out


class PlacementCostModel:
    """Scores assignments as summed, weighted predicted excess time.

    One GPU hosting group ``G`` costs
    ``sum_{a in G} w_a * (joint(G) - solo(a))`` microseconds — each
    member's predicted slowdown expressed in time units
    (``solo(a) * (slowdown_a - 1)``), zero for an empty or singleton
    slot.  Keeping the objective in microseconds rather than
    dimensionless ratios matters: a ratio objective prefers pairing two
    heavy apps (each "only" doubles) over shielding a light app whose
    ratio would spike, which piles the most work onto one GPU; the
    time-unit objective instead predicts aggregate latency inflation,
    so minimizing it balances predicted work — and therefore makespan,
    throughput, and tail latency — across the cluster.  ``w_a`` is 1.0
    unless an SLO spec classes the app, in which case ``CLASS_WEIGHTS``
    applies (latency-critical tenants weigh more, steering them onto
    quieter GPUs).  A full assignment's cost is the sum over GPUs;
    minimizing it is the §4.2.2 "avoid conflict" objective made
    concrete.
    """

    def __init__(self, slo=None):
        self.estimator = InterferenceEstimator()
        self.slo = slo

    def weight(self, app: Application) -> float:
        if self.slo is None:
            return 1.0
        return float(
            CLASS_WEIGHTS.get(self.slo.slo_class(app.app_id), 1.0)
        )

    def slot_cost(self, group: Sequence[Application]) -> float:
        """Weighted predicted excess time (μs) of one GPU's group."""
        if len(group) <= 1:
            return 0.0
        joint = self.estimator.joint_us(group)
        total = 0.0
        for app in group:
            solo = self.estimator.solo_us(app)
            total += self.weight(app) * max(0.0, joint - solo)
        return total

    def add_cost(
        self, group: Sequence[Application], candidate: Application
    ) -> float:
        """Marginal cost of adding ``candidate`` to ``group``."""
        return self.slot_cost([*group, candidate]) - self.slot_cost(group)

    def assignment_cost(
        self, groups: Sequence[Sequence[Application]]
    ) -> float:
        """Total cost of a full assignment (one group per GPU)."""
        return sum(self.slot_cost(group) for group in groups)


def _construct_greedy(
    apps: Sequence[Application],
    num_slots: int,
    cost_model: PlacementCostModel,
    feasible: FeasibilityCheck,
    key: Callable[[Sequence[Application], Application, int], Tuple],
) -> Optional[List[List[Application]]]:
    """Place ``apps`` one by one, choosing slots by ``key`` (min wins)."""
    groups: List[List[Application]] = [[] for _ in range(num_slots)]
    for app in apps:
        candidates = [
            index
            for index in range(num_slots)
            if feasible(groups[index], app)
        ]
        if not candidates:
            return None
        chosen = min(candidates, key=lambda i: key(groups[i], app, i))
        groups[chosen].append(app)
    return groups


def _construct_complete(
    apps: Sequence[Application],
    num_slots: int,
    feasible: FeasibilityCheck,
) -> Optional[List[List[Application]]]:
    """A feasible assignment of ``apps`` in order, or ``None``.

    Depth-first backtracking over every slot choice, within
    ``COMPLETE_SEARCH_TRIES`` tries, cut by three rules that lose no
    feasible assignment:

    * feasibility depends only on a slot's group, so all empty slots
      are alike: an app tries the first empty slot and never a second;
    * apps alike to feasibility (same quota, memory and kernel trace)
      are interchangeable, so each takes a slot no lower than the
      previous such app's;
    * a branch ends when the apps left need more quota than the slots
      have free (a group's quotas sum to at most 1, up to the
      feasibility check's 1e-9 slack per app).
    """
    groups: List[List[Application]] = [[] for _ in range(num_slots)]
    slot_of = [0] * len(apps)
    # twin[i]: position of the previous app alike to apps[i], or -1.
    twin = [-1] * len(apps)
    last_seen: Dict[tuple, int] = {}
    for position, app in enumerate(apps):
        kind = (app.quota, app.memory_mb, id(app.kernels))
        twin[position] = last_seen.get(kind, -1)
        last_seen[kind] = position
    # needed[i]: total quota of apps[i:].
    needed = [0.0] * (len(apps) + 1)
    for position in range(len(apps) - 1, -1, -1):
        needed[position] = needed[position + 1] + apps[position].quota

    tries = 0

    def place(position: int, used: float) -> bool:
        nonlocal tries
        if position == len(apps):
            return True
        if needed[position] > num_slots - used + 1e-6:
            return False
        app = apps[position]
        lowest = slot_of[twin[position]] if twin[position] >= 0 else 0
        for slot in range(lowest, num_slots):
            tries += 1
            if tries > COMPLETE_SEARCH_TRIES:
                return False
            group = groups[slot]
            if feasible(group, app):
                group.append(app)
                slot_of[position] = slot
                if place(position + 1, used + app.quota):
                    return True
                group.pop()
            if not group:
                break
        return False

    return groups if place(0, 0.0) else None


def _local_search(
    groups: List[List[Application]],
    cost_model: PlacementCostModel,
    feasible: FeasibilityCheck,
) -> List[List[Application]]:
    """Bounded best-improvement refinement with move and swap moves.

    Each round scans every single-app **move** (app to another slot)
    and every pairwise **swap** (exchange two apps between slots),
    applies the strictly-cheapest feasible one, and repeats until no
    move improves or the ``LOCAL_SEARCH_ROUNDS``-scaled budget is
    spent.  All scans iterate in deterministic (slot index, app_id)
    order and ties break on ``(kind, app_id, target)`` so two runs
    refine identically.
    """
    num_apps = sum(len(group) for group in groups)
    budget = LOCAL_SEARCH_ROUNDS * max(1, num_apps)
    for _ in range(budget):
        best: Optional[Tuple[Tuple, Callable[[], None]]] = None

        def consider(gain: float, tie: Tuple, apply_move: Callable[[], None]):
            nonlocal best
            entry = ((-gain,) + tie, apply_move)
            if best is None or entry[0] < best[0]:
                best = entry

        for source in range(len(groups)):
            for app in sorted(groups[source], key=lambda a: a.app_id):
                others = [a for a in groups[source] if a is not app]
                source_cost = cost_model.slot_cost(groups[source])
                source_without = cost_model.slot_cost(others)
                for target in range(len(groups)):
                    if target == source:
                        continue
                    target_group = groups[target]
                    target_cost = cost_model.slot_cost(target_group)
                    # Move: app leaves source for target.
                    if feasible(target_group, app):
                        gain = (
                            source_cost
                            + target_cost
                            - source_without
                            - cost_model.slot_cost([*target_group, app])
                        )
                        if gain > COST_EPS:
                            consider(
                                gain,
                                (0, app.app_id, "", target),
                                lambda s=source, t=target, a=app: (
                                    groups[s].remove(a),
                                    groups[t].append(a),
                                ),
                            )
                    # Swap: app exchanges places with one target app.
                    for other in sorted(target_group, key=lambda a: a.app_id):
                        target_without = [
                            a for a in target_group if a is not other
                        ]
                        if not feasible(target_without, app):
                            continue
                        if not feasible(others, other):
                            continue
                        gain = (
                            source_cost
                            + target_cost
                            - cost_model.slot_cost([*others, other])
                            - cost_model.slot_cost([*target_without, app])
                        )
                        if gain > COST_EPS:
                            consider(
                                gain,
                                (1, app.app_id, other.app_id, target),
                                lambda s=source, t=target, a=app, o=other: (
                                    groups[s].remove(a),
                                    groups[t].remove(o),
                                    groups[s].append(o),
                                    groups[t].append(a),
                                ),
                            )
        if best is None:
            break
        best[1]()
    return groups


def solve_placement(
    apps: Sequence[Application],
    num_slots: int,
    cost_model: PlacementCostModel,
    feasible: FeasibilityCheck,
) -> Optional[List[List[Application]]]:
    """Assign ``apps`` to ``num_slots`` GPUs minimizing predicted cost.

    Deterministic pipeline:

    1. order apps by descending solo estimate (heaviest first — the
       classic bin-packing order, with app_id tie-breaks);
    2. construct two candidate assignments greedily — one by marginal
       *cost* (spread-by-interference) over the solo order, and one
       replicating :meth:`~.placement.ClusterPlacer.place_all` under
       best-fit exactly (quota-descending stable order, headroom key)
       — so the result is **never worse than the best-fit placer's
       assignment** under this cost model (a property the test suite
       pins);
    3. refine each with bounded local search and keep the cheaper.

    Greedy constructions can strand an app on a batch that packs only
    exactly (quotas 0.5/0.4/0.3/0.3/0.3/0.2 on two GPUs); when both
    fail, a backtracking search over the quota-descending order finds
    a feasible assignment if one exists (complete on batches of up to
    8 apps on 3 GPUs; bounded by ``COMPLETE_SEARCH_TRIES`` beyond),
    and local search refines it.

    Returns one group per slot, or ``None`` when no assignment places
    every app (the caller decides between degrading and shedding).
    """
    order = sorted(
        apps,
        key=lambda a: (-cost_model.estimator.solo_us(a), a.app_id),
    )
    # Stable quota-descending order — byte-for-byte the order the
    # best-fit placer batches in, so the headroom construction below
    # reproduces its assignment exactly before refinement only ever
    # improves it.
    bf_order = sorted(apps, key=lambda a: a.quota, reverse=True)

    def cost_key(group, app, index):
        return (cost_model.add_cost(group, app), index)

    def headroom_key(group, app, index):
        free = 1.0 - sum(a.quota for a in group)
        return (float(free - app.quota), index)

    candidates = []
    for construction_order, key in ((order, cost_key), (bf_order, headroom_key)):
        groups = _construct_greedy(
            construction_order, num_slots, cost_model, feasible, key
        )
        if groups is None:
            continue
        groups = _local_search(groups, cost_model, feasible)
        candidates.append((cost_model.assignment_cost(groups), groups))
    if not candidates:
        groups = _construct_complete(bf_order, num_slots, feasible)
        if groups is None:
            return None
        return _local_search(groups, cost_model, feasible)
    best_cost, best_groups = candidates[0]
    for cost, groups in candidates[1:]:
        if cost < best_cost - COST_EPS:
            best_cost, best_groups = cost, groups
    return best_groups
