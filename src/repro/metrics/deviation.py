"""Latency deviation vs the quota-isolated (ISO) baseline (§6.2).

For a quota assignment giving application *j* the share ``n_j``, the ISO
target is ``T_j[n_j]`` — the latency the app achieves alone on an MPS
partition of that size.  A sharing system's deviation under that
assignment is::

    deviation = sum_j max(T_sys_j - T_j[n_j], 0)

i.e. only *worse-than-promised* latency counts; beating the promise is
free.  The *average* latency deviation over many quota assignments
measures a system's flexibility (Fig. 14).
"""

from __future__ import annotations

import math
from typing import Mapping

from .stats import ServingResult


def latency_deviation_us(
    result: ServingResult, iso_targets_us: Mapping[str, float]
) -> float:
    """Deviation of one run against per-app ISO latency targets."""
    total = 0.0
    for app_id, mean in result.per_app_mean_latency().items():
        target = iso_targets_us.get(app_id)
        if target is None:
            raise KeyError(f"no ISO target for app {app_id!r}")
        if math.isnan(mean):
            # An app with zero completed requests (all shed/faulted)
            # contributes no deviation rather than poisoning the sum.
            continue
        total += max(mean - target, 0.0)
    return total
