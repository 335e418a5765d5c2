"""Kernel descriptors and the kernel work/scaling model.

All times in this package are simulated microseconds (``float``).  SM
quantities are expressed as *fractions* of the whole GPU in ``[0, 1]``;
the device translates fractions to physical SM counts when needed.

A :class:`KernelSpec` is the static description of a kernel, produced by
the application substrate (``repro.apps``).  A :class:`KernelInstance`
is one dynamic execution of a spec, owned by the simulation engine.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .stream import DeviceQueue


class KernelKind(enum.Enum):
    """The classes of GPU work the simulator distinguishes.

    COMPUTE kernels occupy SMs; H2D/D2H memcpy kernels occupy the PCIe
    DMA channel; SYNC kernels are zero-work markers used to model
    host/device synchronisation points.
    """

    COMPUTE = "compute"
    H2D = "h2d"
    D2H = "d2h"
    SYNC = "sync"


# Serial (non-SM-parallel) fraction of a compute kernel's runtime.  With
# fewer SMs than its demand, a kernel slows down proportionally except
# for this fixed fraction (kernel launch tails, DRAM latency, etc.).
DEFAULT_SERIAL_FRACTION = 0.05


@dataclass(frozen=True)
class KernelSpec:
    """Static description of one GPU kernel.

    Parameters
    ----------
    name:
        Human-readable identifier, unique within an application.
    kind:
        What resource the kernel occupies (SMs or the DMA channel).
    base_duration_us:
        Solo-run duration when the kernel is granted ``sm_demand`` of
        the GPU with no memory-bandwidth contention.  For memcpy
        kernels, the solo transfer duration on an idle PCIe link.
    sm_demand:
        ``d%`` in the paper — the fraction of the GPU's SMs the kernel
        can actively occupy.  Granting more SMs than this does not make
        the kernel faster.
    mem_intensity:
        Fraction of peak global-memory bandwidth the kernel consumes
        while running at full speed.  Drives the interference model.
    serial_fraction:
        Amdahl-style fraction of the runtime insensitive to SM count.
    dispatch_gap_us:
        Host-side stall between the previous kernel's completion in the
        same device queue and this kernel's dispatch (dependency syncs,
        framework overhead, small CPU ops).  These gaps are the
        *intra-request bubbles* of Fig. 1 — a solo app only reaches
        ~80-86% GPU utilization because of them, and co-located work
        can execute during them.
    """

    name: str
    kind: KernelKind = KernelKind.COMPUTE
    base_duration_us: float = 10.0
    sm_demand: float = 1.0
    mem_intensity: float = 0.3
    serial_fraction: float = DEFAULT_SERIAL_FRACTION
    dispatch_gap_us: float = 0.0

    def __post_init__(self) -> None:
        if self.base_duration_us < 0:
            raise ValueError(f"negative duration for kernel {self.name!r}")
        if not 0.0 < self.sm_demand <= 1.0:
            raise ValueError(
                f"sm_demand must be in (0, 1], got {self.sm_demand} for {self.name!r}"
            )
        if not 0.0 <= self.mem_intensity <= 1.0:
            raise ValueError(
                f"mem_intensity must be in [0, 1], got {self.mem_intensity}"
            )
        if not 0.0 <= self.serial_fraction < 1.0:
            raise ValueError(
                f"serial_fraction must be in [0, 1), got {self.serial_fraction}"
            )
        if self.dispatch_gap_us < 0:
            raise ValueError(
                f"dispatch_gap_us must be non-negative, got {self.dispatch_gap_us}"
            )

    @property
    def is_compute(self) -> bool:
        return self.kind is KernelKind.COMPUTE

    @property
    def is_memcpy(self) -> bool:
        return self.kind in (KernelKind.H2D, KernelKind.D2H)

    def duration_at(self, sm_fraction: float) -> float:
        """Solo-run duration when restricted to ``sm_fraction`` of the GPU.

        This is the kernel scaling model shared by the simulator and —
        via offline profiling — by BLESS's estimators.  A kernel that
        demands ``d`` of the GPU and receives ``n < d`` slows down by
        ``d / n`` on its parallel part only:

        ``t(n) = base * (serial + (1 - serial) * d / min(n, d))``

        Non-compute kernels do not scale with SMs.
        """
        if not self.is_compute:
            return self.base_duration_us
        if sm_fraction <= 0.0:
            raise ValueError("sm_fraction must be positive")
        usable = min(sm_fraction, self.sm_demand)
        slowdown = self.sm_demand / usable
        parallel = 1.0 - self.serial_fraction
        return self.base_duration_us * (self.serial_fraction + parallel * slowdown)

    def rate_at(self, sm_fraction: float) -> float:
        """Execution rate relative to solo full-demand speed (<= 1.0)."""
        if self.base_duration_us == 0.0:
            return 1.0
        return self.base_duration_us / self.duration_at(sm_fraction)


_instance_counter = itertools.count()


class KernelInstance:
    """One dynamic execution of a :class:`KernelSpec`.

    ``remaining_work`` is measured in *solo-speed microseconds*: it
    starts at ``spec.base_duration_us`` and drains at the current
    execution rate (1.0 = solo full-demand speed).

    Slotted with a plain ``__init__``: the engine builds one instance
    per simulated kernel, so construction sits on the per-kernel path,
    and a misspelt attribute raises instead of silently landing in an
    instance dict.
    """

    __slots__ = (
        "spec",
        "app_id",
        "request_id",
        "seq",
        "uid",
        "remaining_work",
        "enqueue_time",
        "start_time",
        "finish_time",
        "current_rate",
        "current_sm_fraction",
        "attempts",
        "failed",
        "queue",
        "on_finish",
    )

    def __init__(
        self,
        spec: KernelSpec,
        app_id: str = "",
        request_id: int = -1,
        seq: int = 0,  # index of this kernel within its request
    ):
        self.spec = spec
        self.app_id = app_id
        self.request_id = request_id
        self.seq = seq
        self.uid = next(_instance_counter)
        self.remaining_work = spec.base_duration_us
        self.enqueue_time: Optional[float] = None
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        # Filled in by the engine while the kernel runs:
        self.current_rate = 0.0
        self.current_sm_fraction = 0.0
        # Fault machinery (see gpusim.faults): how many failed attempts
        # this instance has retried, and whether it ended in permanent
        # failure (either exhausted retries or killed with its
        # context/request).
        self.attempts = 0
        self.failed = False
        # Engine bookkeeping: the device queue the kernel was pushed to
        # (its context is what tracers record), and the launch's
        # per-kernel completion callback until it is consumed.
        self.queue: Optional[DeviceQueue] = None
        self.on_finish: Optional[Callable[[KernelInstance], None]] = None

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def done(self) -> bool:
        return self.remaining_work <= 1e-12

    def __hash__(self) -> int:
        return self.uid

    def __eq__(self, other: object) -> bool:
        return isinstance(other, KernelInstance) and other.uid == self.uid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KernelInstance({self.spec.name!r}, app={self.app_id!r}, "
            f"req={self.request_id}, seq={self.seq}, remaining={self.remaining_work:.1f}us)"
        )
