"""Squad-signature memoization for the execution configuration search.

The determiner (§4.4) re-runs the full ``C(N-1, K-1)`` composition
search for every squad, yet consecutive squads generated from the same
request mix are near-identical: the same applications contribute the
same kernel-index windows wave after wave.  This module caches the
chosen :class:`~repro.core.configurator.ExecutionConfig` in an LRU
keyed by the squad's *signature* (:meth:`repro.core.squad.KernelSquad.
signature`) so a repeat squad costs one dict lookup instead of a full
search — the decision-latency budget of §6.9.

Cached decisions are stored **positionally** (partition counts and rear
counts as tuples aligned with the signature's canonical app order), so
two squads that differ only in client identity — two clients of the
same model with equal quotas and the same kernel window — share one
entry; the caller rebuilds the per-``app_id`` maps for its own squad.

Invalidation: the signature embeds each profile's ``version`` token,
so recalibrating a profile (``OfflineProfiler.recalibrate``) makes all
stale keys unreachable.  :meth:`ExecutionConfigCache.invalidate` is the
explicit hook that also frees the memory eagerly.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional, Sequence, Tuple

from ..metrics.stats import CacheStats


@dataclass(frozen=True)
class CachedDecision:
    """An :class:`ExecutionConfig` in app-order-independent form.

    ``split`` / ``rear_counts`` hold per-app values in the app order
    it was built with: the signature's canonical order in this LRU, the
    squad's insertion order in the configurator's process-wide decision
    table.  ``None`` split means the unrestricted (NSP) configuration
    was chosen.
    """

    split: Optional[Tuple[int, ...]]
    predicted_duration_us: float
    rear_counts: Optional[Tuple[int, ...]] = None

    def rebuild(self, app_ids: Sequence[str]):
        """Materialize an ``ExecutionConfig`` for a concrete squad.

        ``app_ids`` must be in the order :meth:`from_config` was given:
        for the LRU, the canonical ordering returned by the same
        ``KernelSquad.signature`` call that produced the cache key.
        """
        from .configurator import ExecutionConfig

        partitions = None
        if self.split is not None:
            partitions = dict(zip(app_ids, self.split))
        rears = None
        if self.rear_counts is not None:
            rears = dict(zip(app_ids, self.rear_counts))
        return ExecutionConfig(
            partitions=partitions,
            predicted_duration_us=self.predicted_duration_us,
            rear_counts=rears,
        )

    @classmethod
    def from_config(cls, config, app_ids: Sequence[str]) -> "CachedDecision":
        """Strip a concrete ``ExecutionConfig`` down to positional form."""
        split = None
        if config.partitions is not None:
            split = tuple(config.partitions[a] for a in app_ids)
        rears = None
        if config.rear_counts is not None:
            rears = tuple(config.rear_counts[a] for a in app_ids)
        return cls(
            split=split,
            predicted_duration_us=config.predicted_duration_us,
            rear_counts=rears,
        )


class ExecutionConfigCache:
    """Bounded LRU of squad signature -> :class:`CachedDecision`."""

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, CachedDecision]" = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> Optional[CachedDecision]:
        """Look up a decision, refreshing its LRU position on a hit."""
        decision = self._entries.get(key)
        if decision is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return decision

    def put(self, key: Hashable, decision: CachedDecision) -> None:
        """Insert (or refresh) a decision, evicting the LRU tail."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = decision
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def invalidate(self) -> None:
        """Drop every entry — the hook for profile recalibration."""
        self._entries.clear()
        self.stats.invalidations += 1
