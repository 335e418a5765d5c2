"""Deployment admission checks (§4.2.2).

Before accepting a set of applications onto one GPU, BLESS checks:

* **memory** — the apps' footprints plus the MPS contexts BLESS will
  create must fit device memory (placement must not cause OOM);
* **kernel-duration compatibility** — applications with very short
  kernels must not be co-located with applications whose kernels are
  extremely long, or the former would starve inside every squad.  BLESS
  targets apps whose average kernel duration is in the ~10–300 µs band.

Placement scores many candidate groups against the same apps, so each
app's compute-kernel duration stats are computed once and kept on the
instance, next to the kernel list they were computed from: a copy with
another trace (a rescaled copy under the same name) is another
instance with another list, and gets its own stats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..apps.application import Application
from ..gpusim.device import GPUSpec
from .config import BlessConfig, DEFAULT_CONFIG

# Paper: "BLESS works well to co-locate most deep learning applications,
# with the average kernel duration varying from 10us to 300us."
MEAN_KERNEL_BAND_US = (10.0, 300.0)
# Starvation rule of thumb: reject when one app's longest kernels dwarf
# another app's average kernels by more than this factor.
MAX_DURATION_DISPARITY = 100.0


@dataclass
class AdmissionReport:
    """Outcome of an admission check."""

    accepted: bool
    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)


def compute_duration_stats(app: Application) -> Tuple[float, float]:
    """(mean, max) base duration of ``app``'s compute kernels (0 if none)."""
    cached = app.__dict__.get("_compute_duration_stats")
    if cached is not None and cached[0] is app.kernels:
        return cached[1]
    durations = [k.base_duration_us for k in app.kernels if k.is_compute]
    stats = (
        (sum(durations) / len(durations), max(durations))
        if durations
        else (0.0, 0.0)
    )
    app.__dict__["_compute_duration_stats"] = (app.kernels, stats)
    return stats


def check_admission(
    apps: Sequence[Application],
    gpu_spec: Optional[GPUSpec] = None,
    config: BlessConfig = DEFAULT_CONFIG,
    contexts_per_app: int = 2,
) -> AdmissionReport:
    """Decide whether ``apps`` can be co-deployed under BLESS."""
    spec = gpu_spec or GPUSpec()
    report = AdmissionReport(accepted=True)

    if not apps:
        report.accepted = False
        report.errors.append("no applications to deploy")
        return report

    # Memory: app footprints + the restricted MPS contexts BLESS keeps.
    total_mb = sum(app.memory_mb for app in apps)
    total_mb += len(apps) * contexts_per_app * spec.mps_context_mb
    if total_mb > spec.memory_mb:
        report.accepted = False
        report.errors.append(
            f"memory over-subscribed: need {total_mb}MB, "
            f"device has {spec.memory_mb}MB"
        )

    # Quotas must not oversubscribe the GPU.
    total_quota = sum(app.quota for app in apps)
    if total_quota > 1.0 + 1e-9:
        report.accepted = False
        report.errors.append(
            f"quotas sum to {total_quota:.2f} > 1.0"
        )

    # Kernel-duration compatibility.
    stats = [compute_duration_stats(app) for app in apps]
    for app, (mean, _) in zip(apps, stats):
        if not MEAN_KERNEL_BAND_US[0] <= mean <= MEAN_KERNEL_BAND_US[1]:
            report.warnings.append(
                f"{app.app_id}: mean kernel duration {mean:.1f}us outside "
                f"the {MEAN_KERNEL_BAND_US} band BLESS targets"
            )
    for short, (mean_short, _) in zip(apps, stats):
        for long, (_, max_long) in zip(apps, stats):
            if short is long:
                continue
            if mean_short > 0 and max_long / mean_short > MAX_DURATION_DISPARITY:
                report.accepted = False
                report.errors.append(
                    f"{short.app_id} (mean kernel {mean_short:.0f}us) would "
                    f"starve next to {long.app_id} (max kernel {max_long:.0f}us)"
                )
    return report
