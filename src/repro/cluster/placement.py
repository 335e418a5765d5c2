"""Application placement across multiple GPUs (§4.2.2).

The paper sketches the multi-GPU extension: replicate the BLESS runtime
per GPU and let "a central controller leverage the memory requirement
and profiled kernel information to decide which specific GPU to place
applications to avoid conflict" (as in GPUlet).  This module implements
that controller's placement decision:

* an application fits a GPU only if memory (including the MPS contexts
  BLESS will create), quota headroom, and kernel-duration compatibility
  (§4.2.2's starvation rule) all allow it;
* among feasible GPUs, `best_fit` picks the one whose remaining quota
  headroom is smallest after placement (pack tightly, keep whole GPUs
  free), `worst_fit` the largest (balance load), `first_fit` the first;
* `contention_aware` scores candidates with the Eq. 2 interference
  cost model of :mod:`.interference` instead of quota headroom —
  greedy marginal-cost selection online, greedy construction plus
  local-search refinement for batches, and cost-driven migration
  proposals (see ``docs/cluster.md``).

Every feasibility probe runs :func:`repro.core.deployment.check_admission`
on the candidate group; the check reads each app's kernel-duration
stats from a per-app cache, so a probe costs a pass over the group.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..apps.application import Application
from ..core.deployment import check_admission
from ..gpusim.device import GPUSpec
from .interference import COST_EPS, PlacementCostModel, solve_placement


class PlacementPolicy(enum.Enum):
    FIRST_FIT = "first_fit"
    BEST_FIT = "best_fit"
    WORST_FIT = "worst_fit"
    CONTENTION_AWARE = "contention_aware"


class PlacementError(RuntimeError):
    """No GPU can host the application."""


def admission_accepts(
    apps: Sequence[Application], spec: GPUSpec
) -> bool:
    """``check_admission(apps, spec).accepted``."""
    return check_admission(apps, gpu_spec=spec).accepted


def group_feasible(
    group: Sequence[Application], candidate: Application, spec: GPUSpec
) -> bool:
    """May ``candidate`` join ``group`` on one GPU of ``spec``?

    The quota-headroom pre-check mirrors :meth:`GPUSlot.fits` so the
    contention solver and the slot-based policies agree on feasibility.
    """
    free = 1.0 - sum(app.quota for app in group)
    if candidate.quota > free + 1e-9:
        return False
    return admission_accepts([*group, candidate], spec)


@dataclass
class GPUSlot:
    """A single GPU's deployment state inside the cluster."""

    index: int
    spec: GPUSpec
    apps: List[Application] = field(default_factory=list)

    @property
    def quota_used(self) -> float:
        return sum(app.quota for app in self.apps)

    @property
    def quota_free(self) -> float:
        return 1.0 - self.quota_used

    @property
    def memory_used_mb(self) -> int:
        contexts = 2 * len(self.apps) * self.spec.mps_context_mb
        return sum(app.memory_mb for app in self.apps) + contexts

    def fits(self, app: Application) -> bool:
        """Would ``app`` be admitted alongside this GPU's current apps?"""
        return group_feasible(self.apps, app, self.spec)


class ClusterPlacer:
    """Places applications on a pool of GPUs.

    ``policy`` selects among quota-fit rules (first/best/worst-fit) and
    the interference-cost objective (``CONTENTION_AWARE``).  The cost
    model is built only for the contention policy.
    """

    def __init__(
        self,
        num_gpus: int,
        gpu_spec: Optional[GPUSpec] = None,
        policy: PlacementPolicy = PlacementPolicy.BEST_FIT,
        slo=None,
    ):
        if num_gpus < 1:
            raise ValueError("need at least one GPU")
        spec = gpu_spec or GPUSpec()
        self.policy = policy
        self.slots = [GPUSlot(index=i, spec=spec) for i in range(num_gpus)]
        self.cost_model: Optional[PlacementCostModel] = None
        if policy is PlacementPolicy.CONTENTION_AWARE:
            self.cost_model = PlacementCostModel(slo=slo)

    @property
    def gpu_spec(self) -> GPUSpec:
        return self.slots[0].spec

    def _feasible(
        self, group: Sequence[Application], candidate: Application
    ) -> bool:
        return group_feasible(group, candidate, self.gpu_spec)

    def select(self, app: Application) -> Optional[GPUSlot]:
        """The slot ``place`` would choose, without recording (None = none).

        The quota-fit keys sort by the slot's headroom *after*
        placement with the slot index as an explicit tie-break:
        ``app.quota`` is slot-invariant so it never changes the argmin,
        but float-equal headrooms (common with the Table-2 rational
        quotas, and representation-sensitive across numpy/python float
        paths) previously tie-broke on whatever order ``min``/``max``
        happened to scan — the index makes the decision deterministic
        by construction.  ``CONTENTION_AWARE`` sorts by the marginal
        interference cost of joining each slot's group instead (an
        empty GPU costs nothing, so the rule spreads first and then
        co-locates the least-conflicting mixes), same index tie-break.
        """
        feasible = [slot for slot in self.slots if slot.fits(app)]
        if not feasible:
            return None
        if self.policy is PlacementPolicy.FIRST_FIT:
            return feasible[0]
        if self.policy is PlacementPolicy.CONTENTION_AWARE:
            return min(
                feasible,
                key=lambda s: (self.cost_model.add_cost(s.apps, app), s.index),
            )
        if self.policy is PlacementPolicy.BEST_FIT:
            return min(
                feasible,
                key=lambda s: (float(s.quota_free - app.quota), s.index),
            )
        # WORST_FIT: largest headroom, lowest index on ties.
        return min(
            feasible,
            key=lambda s: (-float(s.quota_free - app.quota), s.index),
        )

    def place(self, app: Application) -> GPUSlot:
        """Choose a GPU for ``app`` and record the placement."""
        chosen = self.select(app)
        if chosen is None:
            raise PlacementError(
                f"no GPU can host {app.app_id!r} "
                f"(quota {app.quota:.0%}, {app.memory_mb}MB)"
            )
        chosen.apps.append(app)
        return chosen

    def remove(self, app_id: str) -> GPUSlot:
        """Undo a placement (application departure); returns its slot."""
        for slot in self.slots:
            for app in slot.apps:
                if app.app_id == app_id:
                    slot.apps.remove(app)
                    return slot
        raise KeyError(f"app {app_id!r} is not placed on any GPU")

    def slot_of(self, app_id: str) -> Optional[GPUSlot]:
        for slot in self.slots:
            if any(app.app_id == app_id for app in slot.apps):
                return slot
        return None

    def quota_spread(self) -> float:
        """Max minus min per-slot quota load (the imbalance measure)."""
        used = [slot.quota_used for slot in self.slots]
        return max(used) - min(used)

    def placement_cost(self) -> Optional[float]:
        """Interference cost of the current assignment (None = no model)."""
        if self.cost_model is None:
            return None
        return self.cost_model.assignment_cost(
            [slot.apps for slot in self.slots]
        )

    def propose_migration(self) -> Optional[Tuple[Application, GPUSlot, GPUSlot]]:
        """One improving move, or None when no move helps.

        Quota policies keep the deterministic load-balancing rule: take
        the most-loaded slot (lowest index on ties), and among its apps
        that *fit* on the least-loaded slot, pick the smallest-quota
        one (app_id tie-break) whose move strictly reduces the
        cluster's quota spread.  ``CONTENTION_AWARE`` replaces it with
        a cost-driven proposal: the single move that most reduces the
        assignment's interference cost (ties: app_id, then target then
        source index).  Returns ``(app, source, target)`` without
        applying the move.
        """
        if len(self.slots) < 2:
            return None
        if self.policy is PlacementPolicy.CONTENTION_AWARE:
            return self._propose_migration_cost()
        source = min(self.slots, key=lambda s: (-s.quota_used, s.index))
        target = min(self.slots, key=lambda s: (s.quota_used, s.index))
        if source.index == target.index:
            return None
        spread = source.quota_used - target.quota_used
        candidates = sorted(
            source.apps, key=lambda a: (float(a.quota), a.app_id)
        )
        for app in candidates:
            # The move must strictly shrink the spread (otherwise the
            # orchestrator would oscillate the same app back and forth).
            new_source = source.quota_used - app.quota
            new_target = target.quota_used + app.quota
            if max(new_source, new_target) - min(new_source, new_target) >= spread - 1e-9:
                continue
            if target.fits(app):
                return app, source, target
        return None

    def _propose_migration_cost(
        self,
    ) -> Optional[Tuple[Application, GPUSlot, GPUSlot]]:
        """The single move with the largest strict cost reduction."""
        model = self.cost_model
        best: Optional[Tuple[Tuple, Application, GPUSlot, GPUSlot]] = None
        for source in self.slots:
            source_cost = model.slot_cost(source.apps)
            for app in sorted(source.apps, key=lambda a: a.app_id):
                others = [a for a in source.apps if a is not app]
                source_without = model.slot_cost(others)
                for target in self.slots:
                    if target.index == source.index:
                        continue
                    if not target.fits(app):
                        continue
                    gain = (
                        source_cost
                        + model.slot_cost(target.apps)
                        - source_without
                        - model.slot_cost([*target.apps, app])
                    )
                    if gain <= COST_EPS:
                        continue
                    key = (-gain, app.app_id, target.index, source.index)
                    if best is None or key < best[0]:
                        best = (key, app, source, target)
        if best is None:
            return None
        return best[1], best[2], best[3]

    def apply_migration(
        self, app: Application, source: GPUSlot, target: GPUSlot
    ) -> None:
        source.apps.remove(app)
        target.apps.append(app)

    def place_all(self, apps: Sequence[Application]) -> Dict[int, List[Application]]:
        """Place a batch (largest quota first — classic bin packing).

        Returns ``{gpu_index: [apps...]}``.  Raises
        :class:`PlacementError` if any app cannot be placed; previously
        recorded placements are kept (callers wanting transactionality
        should use a fresh placer).  Under ``CONTENTION_AWARE`` the
        batch is solved as one cost minimization instead
        (:func:`repro.cluster.interference.solve_placement`): greedy
        construction and local-search refinement — and nothing is
        recorded if the solver cannot place every app.  That solver
        assigns whole GPUs, so it raises ``ValueError`` when any GPU
        already hosts an app.
        """
        if self.policy is PlacementPolicy.CONTENTION_AWARE:
            return self._place_all_contention(apps)
        for app in sorted(apps, key=lambda a: a.quota, reverse=True):
            self.place(app)
        return {slot.index: list(slot.apps) for slot in self.slots if slot.apps}

    def _place_all_contention(
        self, apps: Sequence[Application]
    ) -> Dict[int, List[Application]]:
        if any(slot.apps for slot in self.slots):
            raise ValueError(
                "the contention-aware batch solver needs empty GPUs; "
                "place onto occupied GPUs one app at a time with place()"
            )
        groups = solve_placement(
            apps,
            len(self.slots),
            self.cost_model,
            self._feasible,
        )
        if groups is None:
            total = sum(app.quota for app in apps)
            raise PlacementError(
                f"no feasible contention-aware assignment for "
                f"{len(apps)} apps (total quota {total:.0%}) on "
                f"{len(self.slots)} GPUs"
            )
        for slot, group in zip(self.slots, groups):
            slot.apps.extend(group)
        return {slot.index: list(slot.apps) for slot in self.slots if slot.apps}

    def utilization_summary(self) -> str:
        lines = []
        for slot in self.slots:
            names = ", ".join(a.app_id for a in slot.apps) or "(idle)"
            lines.append(
                f"GPU{slot.index}: quota {slot.quota_used:.0%}, "
                f"memory {slot.memory_used_mb}/{slot.spec.memory_mb}MB — {names}"
            )
        return "\n".join(lines)
