"""Synthetic DNN model traces matching Table 1 of the paper.

The paper benchmarks inference and training of five models on an A100:

=========  ========  =====  =====  =====  =====
(Table 1)  VGG       R50    R101   NAS    BERT
=========  ========  =====  =====  =====  =====
inference  10.2 ms   8.7    17.2   32.7   12.8
 kernels   31        80     148    458    382
training   11.2 ms   25.2   40.1   157.8  186.1
 kernels   80        306    598    2824   5035
=========  ========  =====  =====  =====  =====

We cannot run TVM/PyTorch CUDA kernels, so each model is a *seeded
synthetic trace* with exactly the paper's kernel count and solo-run
duration; per-kernel durations follow a lognormal spread inside the
paper's 3 µs – 3 ms range, and SM demand / memory intensity are drawn
from per-model ranges (BERT inference uses tensor cores → short, very
wide kernels; NasNet has many small branchy kernels).  The scheduler
only ever observes (duration, SM demand, memory intensity), so these
traces exercise the same code paths as the real models.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Tuple

import numpy as np

from ..gpusim.kernel import KernelKind, KernelSpec
from .application import Application, AppKind

MODEL_NAMES: Tuple[str, ...] = ("VGG", "R50", "R101", "NAS", "BERT")

# Duration (ms) and kernel counts straight from Table 1.
_TABLE1_INFERENCE = {
    "VGG": (10.2, 31),
    "R50": (8.7, 80),
    "R101": (17.2, 148),
    "NAS": (32.7, 458),
    "BERT": (12.8, 382),
}
_TABLE1_TRAINING = {
    "VGG": (11.2, 80),
    "R50": (25.2, 306),
    "R101": (40.1, 598),
    "NAS": (157.8, 2824),
    "BERT": (186.1, 5035),
}

# Device-memory footprint per application (weights + activations +
# workspace), in MB.  Not given by the paper; sized so that typical
# pairs fit a 40 GB A100 comfortably while 8-app mixes stress it.
_MEMORY_MB_INFERENCE = {"VGG": 1100, "R50": 800, "R101": 1400, "NAS": 1700, "BERT": 1300}
_MEMORY_MB_TRAINING = {"VGG": 2300, "R50": 2100, "R101": 3600, "NAS": 4200, "BERT": 5800}

# Per-model kernel character: (sm_demand range, mem_intensity range,
# lognormal sigma of the duration spread).
_CHARACTER = {
    "VGG": ((0.55, 1.00), (0.35, 0.75), 0.8),   # big convs, wide kernels
    "R50": ((0.40, 0.95), (0.30, 0.70), 0.9),
    "R101": ((0.40, 0.95), (0.30, 0.70), 0.9),
    "NAS": ((0.20, 0.85), (0.25, 0.60), 1.0),   # many branchy cell kernels
    "BERT": ((0.60, 1.00), (0.40, 0.80), 0.7),  # tensor-core GEMMs
}

# Solo-run GPU utilization — the fraction of a request's lifetime the
# GPU is actually computing.  Fig. 1 reports 81% for VGG11 and 86% for
# ResNet50; the rest is host-side dispatch gaps between kernels (the
# intra-request "bubbles" every sharing system fights over).  Training
# (eager PyTorch) has more host overhead than compiled inference.
_SOLO_UTILIZATION = {
    "inference": {"VGG": 0.81, "R50": 0.86, "R101": 0.85, "NAS": 0.78, "BERT": 0.84},
    "training": {"VGG": 0.76, "R50": 0.80, "R101": 0.80, "NAS": 0.74, "BERT": 0.78},
}

# Input/output transfer sizes per request (bytes): one H2D upload and
# one D2H download around the compute kernels.
_H2D_BYTES = {"VGG": 602_112, "R50": 602_112, "R101": 602_112, "NAS": 602_112, "BERT": 196_608}
_D2H_BYTES = {"VGG": 4_000, "R50": 4_000, "R101": 4_000, "NAS": 4_000, "BERT": 3_072}

_PCIE_BYTES_PER_US = 25_000.0


def _seed_for(name: str, kind: str) -> int:
    return zlib.crc32(f"{name}:{kind}".encode())


def _memcpy_spec(name: str, kind: KernelKind, num_bytes: int) -> KernelSpec:
    duration = max(2.0, num_bytes / _PCIE_BYTES_PER_US)
    return KernelSpec(
        name=name,
        kind=kind,
        base_duration_us=duration,
        sm_demand=0.01,
        mem_intensity=0.0,
    )


def _synth_compute_kernels(
    model: str, kind: str, n_kernels: int, budget_us: float, gap_budget_us: float
) -> List[KernelSpec]:
    """Generate ``n_kernels`` compute kernels.

    Kernel durations sum to ``budget_us``; host dispatch gaps sum to
    ``gap_budget_us`` (so the solo request lasts the Table-1 duration at
    the model's published GPU utilization).
    """
    (d_lo, d_hi), (m_lo, m_hi), sigma = _CHARACTER[model]
    rng = np.random.default_rng(_seed_for(model, kind))
    raw = rng.lognormal(mean=0.0, sigma=sigma, size=n_kernels)
    durations = raw / raw.sum() * budget_us
    # Respect the paper's 3us..3ms per-kernel envelope, then re-normalise.
    durations = np.clip(durations, 3.0, 3000.0)
    durations = durations / durations.sum() * budget_us
    # SM demand is correlated with duration: big kernels fill the GPU.
    rank = durations.argsort().argsort() / max(1, n_kernels - 1)
    noise = rng.uniform(0.0, 1.0, size=n_kernels)
    level = 0.6 * rank + 0.4 * noise
    demands = np.clip(d_lo + (d_hi - d_lo) * level, 0.02, 1.0)
    intensities = rng.uniform(m_lo, m_hi, size=n_kernels)
    # Dispatch gaps: mildly variable, independent of kernel size.  The
    # first kernel of a request has no predecessor to stall on.
    raw_gaps = rng.lognormal(mean=0.0, sigma=0.5, size=n_kernels)
    raw_gaps[0] = 0.0
    total_raw = raw_gaps.sum()
    gaps = raw_gaps / total_raw * gap_budget_us if total_raw > 0 else raw_gaps
    return [
        KernelSpec(
            name=f"{model}-{kind}-k{i:04d}",
            kind=KernelKind.COMPUTE,
            base_duration_us=float(durations[i]),
            sm_demand=float(demands[i]),
            mem_intensity=float(intensities[i]),
            dispatch_gap_us=float(gaps[i]),
        )
        for i in range(n_kernels)
    ]


def _build_application(model: str, kind: str) -> Application:
    """One request's launch sequence: an H2D upload, the Table-1
    compute kernels, and a D2H download."""
    table = _TABLE1_INFERENCE if kind == "inference" else _TABLE1_TRAINING
    if model not in table:
        raise KeyError(f"unknown model {model!r}; choose from {MODEL_NAMES}")
    total_ms, n_kernels = table[model]
    h2d = _memcpy_spec(f"{model}-{kind}-h2d", KernelKind.H2D, _H2D_BYTES[model])
    d2h = _memcpy_spec(f"{model}-{kind}-d2h", KernelKind.D2H, _D2H_BYTES[model])
    utilization = _SOLO_UTILIZATION[kind][model]
    total_us = total_ms * 1000.0
    gap_budget = total_us * (1.0 - utilization)
    budget = (
        total_us * utilization - h2d.base_duration_us - d2h.base_duration_us
    )
    kernels = _synth_compute_kernels(model, kind, n_kernels, budget, gap_budget)
    memory = _MEMORY_MB_INFERENCE if kind == "inference" else _MEMORY_MB_TRAINING
    return Application(
        name=f"{model}-{kind[:3]}",
        kind=AppKind.INFERENCE if kind == "inference" else AppKind.TRAINING,
        kernels=[h2d, *kernels, d2h],
        memory_mb=memory[model],
    )


_cache: Dict[Tuple[str, str], Application] = {}


def inference_app(model: str) -> Application:
    """The inference application for ``model`` (VGG/R50/R101/NAS/BERT)."""
    key = (model, "inference")
    if key not in _cache:
        _cache[key] = _build_application(model, "inference")
    return _cache[key]


def training_app(model: str) -> Application:
    """One training iteration of ``model`` as an application."""
    key = (model, "training")
    if key not in _cache:
        _cache[key] = _build_application(model, "training")
    return _cache[key]


def table1_expectation(model: str, kind: str = "inference") -> Tuple[float, int]:
    """(duration_ms, compute_kernel_count) as printed in Table 1."""
    table = _TABLE1_INFERENCE if kind == "inference" else _TABLE1_TRAINING
    return table[model]


def microbenchmark_kernel(
    name: str = "micro",
    duration_us: float = 100.0,
    sm_demand: float = 0.5,
    mem_intensity: float = 0.3,
) -> KernelSpec:
    """A single tunable kernel for interference microbenchmarks (Fig. 9)."""
    return KernelSpec(
        name=name,
        kind=KernelKind.COMPUTE,
        base_duration_us=duration_us,
        sm_demand=sm_demand,
        mem_intensity=mem_intensity,
    )
