"""GPU simulator substrate: a discrete-event model of a shared GPU.

This package replaces the physical Nvidia A100 used by the paper.  It
models SMs as a divisible pool allocated max-min fairly by a hardware
scheduler, MPS contexts with SM affinity, FIFO device queues, a
saturating memory-bandwidth interference model, a PCIe DMA channel, MIG
slicing, and the launch/sync/context-switch overheads of §6.9.
"""

from .context import ContextRegistry, GPUContext
from .device import GPUDevice, GPUSpec, MemoryPool, OutOfMemoryError
from .engine import SimEngine, TimelineSegment
from .faults import FaultInjector, FaultPlan, resolve_fault_plan
from .hwsched import Allocation
from .kernel import KernelInstance, KernelKind, KernelSpec
from .mig import MIG_PROFILES, MIGInstance, assign_slices, nearest_profile, partition
from .pcie import PCIeChannel
from .stream import DeviceQueue

__all__ = [
    "Allocation",
    "assign_slices",
    "ContextRegistry",
    "DeviceQueue",
    "FaultInjector",
    "FaultPlan",
    "GPUContext",
    "GPUDevice",
    "GPUSpec",
    "KernelInstance",
    "KernelKind",
    "KernelSpec",
    "MemoryPool",
    "MIGInstance",
    "MIG_PROFILES",
    "nearest_profile",
    "OutOfMemoryError",
    "partition",
    "PCIeChannel",
    "resolve_fault_plan",
    "SimEngine",
    "TimelineSegment",
]
