"""Kernel squads and their generation (§4.3.2).

A kernel squad is a group of kernels drawn from the currently active
requests.  In each generation step the scheduler picks the next kernel
of the *laggiest* request — the paper orders requests by relative
progress ``P̃ = P_r / P_e`` (smallest first); this reproduction uses
the equivalent deadline-risk urgency of ``repro.core.progress``, which
also admits SLO targets (§6.5).  Generation stops when (1) the squad
reaches the configured maximum kernel count, or (2) the selected
kernel is the last kernel of a request — so request completions always
coincide with squad boundaries.

With tracing on, each generated squad is recorded as a
``squad.composed`` event whose ``progress`` arg carries every active
request's ``P̃`` at composition time (``docs/observability.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Sequence,
)

from ..apps.application import Request
from .config import BlessConfig
from .progress import RequestProgress

if TYPE_CHECKING:
    from .profiler import AppProfile


@dataclass
class SquadEntry:
    """The kernels one request contributes to a squad."""

    request: Request
    kernel_indices: List[int] = field(default_factory=list)

    @property
    def app_id(self) -> str:
        return self.request.app.app_id

    @property
    def count(self) -> int:
        return len(self.kernel_indices)


@dataclass
class KernelSquad:
    """A generated squad: per-request kernel slices, in selection order."""

    entries: Dict[str, SquadEntry] = field(default_factory=dict)

    @property
    def total_kernels(self) -> int:
        return sum(e.count for e in self.entries.values())

    @property
    def num_requests(self) -> int:
        return len(self.entries)

    @property
    def app_ids(self) -> List[str]:
        return list(self.entries)

    def entry(self, app_id: str) -> SquadEntry:
        return self.entries[app_id]

    def signature(
        self, profiles: Mapping[str, "AppProfile"], config: BlessConfig
    ) -> Hashable:
        """The squad's key in the determiner's signature LRU.

        Per app: the profiled model, its provisioned quota, its
        kernel-index window (which, given the profile, fixes the
        per-kernel duration vector exactly) and the profile's content
        ``digest`` (so a same-named app with another trace gets its own
        key); globally: ``K``, ``N`` and the Semi-SP mode.  The per-app
        terms are sorted, so the key is independent of both squad
        insertion order and client identity: two clients serving the
        same model at the same quota over the same kernel window count
        as one repeat squad.
        """
        terms = sorted(
            (
                profiles[app_id].app_name,
                entry.request.app.quota,
                tuple(entry.kernel_indices),
                profiles[app_id].digest,
            )
            for app_id, entry in self.entries.items()
        )
        return (
            tuple(terms),
            len(terms),
            config.num_partitions,
            config.semi_sp_mode,
        )

    def add(self, request: Request, indices: Iterable[int]) -> SquadEntry:
        """Append ``indices`` to the request's entry (made on first use)
        and return that entry."""
        app_id = request.app.app_id
        entry = self.entries.get(app_id)
        if entry is None:
            entry = self.entries[app_id] = SquadEntry(request, [])
        entry.kernel_indices.extend(indices)
        return entry


def generate_squad(
    progresses: Sequence[RequestProgress],
    now: float,
    config: BlessConfig,
) -> KernelSquad:
    """Build the next kernel squad from the active requests.

    Implements the paper's generation loop (Fig. 6): repeatedly select a
    kernel from the laggiest request until the squad is full or a
    request's final kernel is selected.  With the multi-task scheduler
    ablated (Fig. 20), requests are drained round-robin instead of by
    progress.  The requests must belong to distinct apps (the runtime
    keeps one active request per client), since squads group kernels
    by app id.
    """
    squad = KernelSquad()
    candidates = [p for p in progresses if not p.exhausted]
    if not candidates:
        return squad

    limit = config.max_kernels_per_squad
    solo = len(candidates) == 1
    if solo:
        # Solo streaming: keep squads short so a newly arriving request
        # gets resources at the next (near) boundary (§3.3).  Both a
        # kernel-count cap and a time budget apply — counts alone do
        # not bound the reconfiguration latency when kernels are large.
        limit = max(1, round(limit * config.solo_squad_fraction))

    # A lone candidate is picked whatever its key, so it gets none.
    ranked = config.use_multitask_scheduler and not solo

    # Keys are ``(urgency, -kernels already in this squad / quota)``.
    # The second term is the final tie-break, quota-weighted
    # interleaving: exactly-tied requests (two identical apps arriving
    # at the same instant) interleave instead of one filling the squad,
    # and a 8/9-quota app correctly receives ~8x the kernels of a
    # 1/9-quota co-runner at equal lag.
    #
    # ``now`` is fixed for the whole call and a pick changes only the
    # chosen request's progress and squad share, so every other key
    # stays valid: each key is computed once and only the winner's is
    # refreshed — N + K key evaluations per squad, not N x K.  The
    # candidate list never shrinks either, because the loop ends as
    # soon as the chosen request runs out of kernels.
    keys = [(p.urgency(now), 0.0) for p in candidates] if ranked else []
    total = 0
    accumulated_us = 0.0
    rr_index = 0
    while True:
        if ranked:
            # The first maximum in candidate order: max() keeps the
            # first of equal keys, and index() finds that very key.
            best = keys.index(max(keys))
        else:
            best = rr_index % len(candidates)
            rr_index += 1
        chosen = candidates[best]
        request = chosen.request
        app = request.app
        index = request.next_kernel
        indices = squad.add(request, (index,)).kernel_indices
        if solo:
            accumulated_us += chosen.plan.solo_step_us[index]
        request.next_kernel = index + 1
        total += 1
        if total >= limit or index + 1 >= len(app.kernels):
            break
        if solo and accumulated_us >= config.solo_squad_budget_us:
            break
        if ranked:
            keys[best] = (chosen.urgency(now), -len(indices) / app.quota)
    return squad
