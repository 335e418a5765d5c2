"""Squad-signature accounting for the execution configuration search.

The determiner (§4.4) re-runs the full ``C(N-1, K-1)`` composition
search for every squad, yet consecutive squads generated from the same
request mix are near-identical: the same applications contribute the
same kernel-index windows wave after wave.  Each run keeps a bounded
LRU of squad *signatures* (:meth:`repro.core.squad.KernelSquad.
signature`) to count how often that happens: a signature still in the
LRU is a hit, any other is a miss.  These counts are the run's
``config_cache_*`` results (the decision-latency budget of §6.9).

The LRU stores no decision.  Every decision is answered from the
configurator's process-wide decision table, keyed so that a table hit
is bit-identical to a fresh search (``repro.core.configurator``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable

from ..metrics.stats import CacheStats


class ExecutionConfigCache:
    """Bounded LRU of squad signatures, kept for its hit/miss counts."""

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._keys: "OrderedDict[Hashable, None]" = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._keys

    def lookup(self, key: Hashable) -> bool:
        """Count one lookup of ``key`` and return whether it hit.

        A hit refreshes the key's LRU position; a miss inserts it,
        evicting the least recently used key past capacity.
        """
        if key in self._keys:
            self._keys.move_to_end(key)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        self._keys[key] = None
        if len(self._keys) > self.capacity:
            self._keys.popitem(last=False)
            self.stats.evictions += 1
        return False
