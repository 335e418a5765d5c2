"""MIG (Multi-Instance GPU) partitioning model.

MIG slices an A100 into up to 7 physically-isolated instances.  Each
instance owns a fixed share of SMs *and* memory/L2 bandwidth; unlike
MPS, a MIG instance can never borrow idle resources from a neighbour,
and only a fixed menu of slice sizes exists.  That rigidity is exactly
what Fig. 14 penalises MIG for ("MIG fails to provide such diverse
quota configurations").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

# A100 MIG profiles: (name, compute slices of 7, memory slices of 8).
MIG_PROFILES = (
    ("1g.5gb", 1, 1),
    ("2g.10gb", 2, 2),
    ("3g.20gb", 3, 4),
    ("4g.20gb", 4, 4),
    ("7g.40gb", 7, 8),
)

MIG_COMPUTE_SLICES = 7


@dataclass(frozen=True)
class MIGInstance:
    """One MIG instance: a fixed, isolated slice of the GPU."""

    profile: str
    compute_slices: int
    memory_slices: int

    @property
    def sm_fraction(self) -> float:
        return self.compute_slices / MIG_COMPUTE_SLICES


def nearest_profile(quota: float) -> MIGInstance:
    """Smallest MIG profile whose compute share covers ``quota``.

    MIG cannot express arbitrary quotas; the provider must round up to
    the next slice size (wasting the difference) — or round down and
    violate the quota.  We round up, matching provider practice.
    """
    if not 0.0 < quota <= 1.0:
        raise ValueError(f"quota must be in (0, 1], got {quota}")
    for name, compute, memory in MIG_PROFILES:
        if compute / MIG_COMPUTE_SLICES >= quota - 1e-9:
            return MIGInstance(name, compute, memory)
    return MIGInstance(*MIG_PROFILES[-1])


_VALID_SLICES = (1, 2, 3, 4, 7)


def _clamp_slices(n: int) -> int:
    """Clamp a compute-slice count to an existing MIG profile size."""
    best = _VALID_SLICES[0]
    for size in _VALID_SLICES:
        if size <= n:
            best = size
    return best


def _instance_for_slices(n: int) -> MIGInstance:
    n = _clamp_slices(n)
    for name, compute, memory in MIG_PROFILES:
        if compute == n:
            return MIGInstance(name, compute, memory)
    raise AssertionError(f"no MIG profile with {n} compute slices")


def assign_slices(quotas: Sequence[float]) -> List[MIGInstance]:
    """Best-effort MIG assignment for an arbitrary quota mix.

    Unlike :func:`partition` (which raises when the exact mix does not
    fit), this mirrors what a provider actually does: start from the
    floor of ``quota * 7`` slices (at least 1), hand spare slices to the
    apps with the largest deficit, and clamp to existing profile sizes.
    The result frequently under-provisions some apps — MIG's fixed
    1/7-granularity is exactly the inflexibility Fig. 14 penalises.
    """
    if not quotas:
        return []
    if any(not 0.0 < q <= 1.0 for q in quotas):
        raise ValueError(f"quotas must be in (0, 1]: {list(quotas)}")
    want = [q * MIG_COMPUTE_SLICES for q in quotas]
    slices = [max(1, int(w)) for w in want]
    if sum(slices) > MIG_COMPUTE_SLICES:
        # Shrink the biggest holders until the mix fits.
        while sum(slices) > MIG_COMPUTE_SLICES:
            i = max(range(len(slices)), key=lambda j: slices[j])
            if slices[i] == 1:
                raise ValueError(
                    f"quota mix {list(quotas)} cannot fit {len(quotas)} MIG instances"
                )
            slices[i] -= 1
    else:
        # Distribute spare slices to apps short by more than half a
        # slice; equally-deficient apps (e.g. a symmetric 50/50 pair)
        # get no spare — a provider won't break symmetry, so the spare
        # slice is simply wasted, one more facet of MIG's rigidity.
        while sum(slices) < MIG_COMPUTE_SLICES:
            deficits = [want[j] - slices[j] for j in range(len(slices))]
            i = max(range(len(slices)), key=lambda j: deficits[j])
            if deficits[i] <= 0.5:
                break
            slices[i] += 1
    return [_instance_for_slices(n) for n in slices]


def partition(quotas: Sequence[float]) -> List[MIGInstance]:
    """Assign a MIG instance per quota; raises if they do not fit.

    The total compute slices across instances cannot exceed 7.  When the
    rounded-up assignment does not fit, MIG simply cannot host this
    quota mix (this is the infeasibility Fig. 14 reports).
    """
    instances = [nearest_profile(q) for q in quotas]
    total = sum(inst.compute_slices for inst in instances)
    if total > MIG_COMPUTE_SLICES:
        raise ValueError(
            f"quota mix {list(quotas)} needs {total} compute slices; "
            f"MIG provides only {MIG_COMPUTE_SLICES}"
        )
    return instances
